"""FFT correlation: every shifted match count ``M_k(p)`` at once.

The paper computes its convolution through the classic identity
``x * y = IFFT(FFT(x) . FFT(y))``, and reversing one input turns the
convolution into a correlation (Sect. 3.1).  :func:`correlate_fft` is
that correlation on numpy's transform, read off only at the lags a
caller keeps: the spectral miner's detector, the segment supports and
the FFT-based baselines all go through it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["correlate_fft"]


def correlate_fft(
    x: np.ndarray, y: np.ndarray | None, max_lag: int
) -> np.ndarray:
    """Cross-correlation ``c_i = sum_j y_j x_{j+i}`` for lags ``0..max_lag``.

    Correlates along the last axis, so ``x`` may be a batch of rows.
    ``y = None`` is the autocorrelation of ``x``, ``irfft(|F|**2)``.
    Both inputs are zero-padded to a 5-smooth size ``>= n + max_lag``,
    so no kept lag wraps around.  For 0/1 indicator rows, ``rint`` of
    the result is the exact count ``|{j : x_j = x_{j+i} = 1}|``.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if y is not None and np.shape(y)[-1] != n:
        raise ValueError("correlation inputs must have equal length")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    size = _smooth_size(n + max_lag)
    spectrum = np.fft.rfft(x, n=size, axis=-1)
    if y is None:
        product = spectrum.real**2 + spectrum.imag**2
    else:
        product = spectrum * np.conj(np.fft.rfft(y, n=size, axis=-1))
    return np.fft.irfft(product, n=size, axis=-1)[..., : max_lag + 1]


def _smooth_size(minimum: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= minimum``: a fast numpy FFT length."""
    best = 1 << max(minimum - 1, 0).bit_length()
    fives = 1
    while fives < best:
        threes = fives
        while threes < best:
            size = threes << max(-(-minimum // threes) - 1, 0).bit_length()
            best = min(best, size)
            threes *= 3
        fives *= 5
    return best
