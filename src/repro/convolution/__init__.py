"""Convolution substrate: every engine the miners are built on.

* :mod:`repro.convolution.direct` — quadratic reference kernels.
* :mod:`repro.convolution.fft` — FFT correlation on numpy's transform,
  the source of every match count ``M_k(p)``.
* :mod:`repro.convolution.bigint` — exact big-integer convolution
  (Kronecker substitution) carrying the paper's power-of-two witnesses.
"""

from .direct import correlate_direct, weighted_convolve_direct
from .fft import correlate_fft
from .bigint import (
    bit_positions,
    convolve_exact,
    pack_bits,
    weighted_convolution_witnesses,
    weighted_convolve_kronecker,
)

__all__ = [
    "correlate_direct",
    "weighted_convolve_direct",
    "correlate_fft",
    "bit_positions",
    "convolve_exact",
    "pack_bits",
    "weighted_convolution_witnesses",
    "weighted_convolve_kronecker",
]
