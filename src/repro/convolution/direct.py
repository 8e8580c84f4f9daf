"""Direct (quadratic) convolution and correlation reference kernels.

These are the semantic ground truth the faster engines in this package
are tested against.  Both definitions follow Sect. 3.1 of the paper:

* the paper's *modified* (weighted) convolution,
  ``(x (*) y)_i = sum_{j=0..i} 2**j x_j y_{i-j}``, computed exactly with
  Python integers;
* cross-correlation at every lag, which is what the reverse trick of the
  paper turns convolution into.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "weighted_convolve_direct",
    "correlate_direct",
]


def weighted_convolve_direct(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Exact modified convolution ``(x (*) y)_i = sum_j 2**j x_j y_{i-j}``.

    Operates on Python integers so the power-of-two witnesses never lose
    precision; components can be ``Theta(n)``-bit numbers.
    """
    x = list(map(int, x))
    y = list(map(int, y))
    if len(x) != len(y):
        raise ValueError("the paper's convolution is between equal-length sequences")
    n = len(x)
    out = [0] * n
    for j, xj in enumerate(x):
        if xj:
            wj = xj << j  # 2**j * x_j
            for i in range(j, n):
                if y[i - j]:
                    out[i] += wj * y[i - j]
    return out


def correlate_direct(x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """Cross-correlation ``c_i = sum_j y_j x_{j+i}`` for lags ``0..n-1``.

    With ``y = x`` this counts, for 0/1 indicator inputs, the matches
    between the series and its ``i``-shifted self — the quantity the
    paper obtains by reversing one input of the convolution.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("correlation inputs must have equal length")
    n = x.size
    out = np.zeros(n)
    for i in range(n):
        out[i] = float(np.dot(y[: n - i], x[i:]))
    return out
