"""Convolution substrate: every engine the miners are built on.

* :mod:`repro.convolution.direct` — quadratic reference kernels.
* :mod:`repro.convolution.fft` — FFT correlation on numpy's transform,
  the source of every match count ``M_k(p)``.
* :mod:`repro.convolution.bigint` — the paper's weighted convolution of
  0/1 vectors as one big-integer product (Kronecker substitution),
  read out as power-of-two witness sets.
"""

from .direct import correlate_direct, weighted_convolve_direct
from .fft import correlate_fft
from .bigint import bit_positions, pack_bits, weighted_convolution_witnesses

__all__ = [
    "correlate_direct",
    "weighted_convolve_direct",
    "correlate_fft",
    "bit_positions",
    "pack_bits",
    "weighted_convolution_witnesses",
]
