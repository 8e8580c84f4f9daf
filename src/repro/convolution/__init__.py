"""Convolution substrate: every engine the miners are built on.

* :mod:`repro.convolution.direct` — quadratic reference kernels.
* :mod:`repro.convolution.fft` — from-scratch radix-2 / Bluestein FFT
  and FFT convolution/correlation.
* :mod:`repro.convolution.bigint` — exact big-integer convolution
  (Kronecker substitution) carrying the paper's power-of-two witnesses.
"""

from .direct import (
    convolve_direct,
    convolve_full_direct,
    correlate_direct,
    weighted_convolve_direct,
)
from .fft import (
    convolve_fft,
    correlate_fft,
    fft,
    fft_bluestein,
    fft_pow2,
    ifft,
    next_pow2,
)
from .bigint import (
    bit_positions,
    convolve_exact,
    pack_bits,
    weighted_convolution_witnesses,
    weighted_convolve_kronecker,
)

__all__ = [
    "convolve_direct",
    "convolve_full_direct",
    "correlate_direct",
    "weighted_convolve_direct",
    "convolve_fft",
    "correlate_fft",
    "fft",
    "fft_bluestein",
    "fft_pow2",
    "ifft",
    "next_pow2",
    "bit_positions",
    "convolve_exact",
    "pack_bits",
    "weighted_convolution_witnesses",
    "weighted_convolve_kronecker",
]
