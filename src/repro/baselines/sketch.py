"""Random-projection sketches for shifted self-distance estimation.

Substrate for the periodic-trends baseline (Indyk, Koudas,
Muthukrishnan, VLDB 2000).  The quantity of interest is the shifted
self-distance of a symbol series,

    D(p) = |{ j : t_j != t_{j+p},  0 <= j < n - p }| ,

for every shift ``p``.  With one-hot symbol encoding this is half the
squared Euclidean distance between ``T[0:n-p]`` and ``T[p:n]``, so it
can be estimated by Johnson-Lindenstrauss sign sketches:

    z_m(p) = sum_j ( g_m(j, t_j) - g_m(j, t_{j+p}) ),    g_m iid +-1

has ``E[z_m(p)^2] = 2 D(p)``.  The first sum is a prefix sum; the second
is, per symbol, a correlation of the sign table against the symbol's
indicator vector — so *one FFT batch per sketch dimension* yields the
estimate for **all** shifts simultaneously.  With ``d = O(log n)``
repetitions the total cost is ``O(sigma n log^2 n)``, the complexity
class the paper quotes for [13].
"""

from __future__ import annotations

import numpy as np

from ..convolution.fft import correlate_fft
from ..core.projection import resolve_max_period
from ..core.sequence import SymbolSequence, whole
from ..core.spectral_miner import SpectralMiner

__all__ = ["SelfDistanceSketch", "exact_self_distances"]


def exact_self_distances(
    series: SymbolSequence, max_shift: int | None = None
) -> np.ndarray:
    """Exact ``D(p)`` for ``p = 1 .. max_shift`` from the match counts.

    ``D(p) = (n - p) - sum_k M_k(p)``: total aligned positions minus the
    matches of every symbol, read off
    :meth:`repro.core.spectral_miner.SpectralMiner.match_counts`.
    ``O(sigma n log n)`` for all shifts.  Index 0 of the returned array
    is 0 (``D(0)`` is identically zero).
    """
    miner = SpectralMiner(max_period=_checked_max_shift(max_shift))
    matches = miner.match_counts(series).sum(axis=0)
    aligned = series.length - np.arange(matches.size, dtype=np.float64)
    distances = aligned - matches
    distances[0] = 0.0
    return distances


class SelfDistanceSketch:
    """JL sign-sketch estimator of the shifted self-distances.

    Parameters
    ----------
    dimensions:
        Number of independent sketches ``d``; the estimator's relative
        standard error is about ``sqrt(2/d)``.
    rng:
        Source of the sign tables.
    """

    def __init__(self, dimensions: int = 64, rng: np.random.Generator | None = None):
        if dimensions < 1:
            raise ValueError("sketch dimensions must be positive")
        self._dimensions = dimensions
        self._rng = np.random.default_rng() if rng is None else rng

    @property
    def dimensions(self) -> int:
        """Number of sketch repetitions."""
        return self._dimensions

    def estimate(
        self, series: SymbolSequence, max_shift: int | None = None
    ) -> np.ndarray:
        """Estimated ``D(p)`` for ``p = 0 .. max_shift``.

        One batch of ``d * sigma`` FFT correlations answers every shift.
        """
        n = series.length
        max_shift = resolve_max_period(n, _checked_max_shift(max_shift))
        codes = series.codes
        estimates = np.zeros(max_shift + 1)
        for _ in range(self._dimensions):
            signs = self._rng.choice((-1.0, 1.0), size=(n, series.sigma))
            own = signs[np.arange(n), codes]  # g(j, t_j)
            # First term: sum_{j < n-p} g(j, t_j) — a suffix of prefix sums.
            prefix = np.concatenate([[0.0], np.cumsum(own)])
            # Second term: sum_{j < n-p} g(j, t_{j+p})
            #            = sum_k sum_{i >= p} g(i-p, k) [t_i = k]
            # — per symbol, the lag-p correlation of the sign column with
            # the symbol's indicator.
            shifted = np.zeros(max_shift + 1)
            for k in range(series.sigma):
                indicator = codes == k
                if indicator.any():
                    shifted += correlate_fft(indicator, signs[:, k], max_shift)
            z = prefix[n - np.arange(max_shift + 1)] - shifted
            estimates += z * z
        estimates /= 2.0 * self._dimensions
        estimates[0] = 0.0
        return estimates


def _checked_max_shift(max_shift: int | None) -> int | None:
    """``max_shift`` unchanged, or an error naming it if it is below 1."""
    if max_shift is not None and whole("max_shift", max_shift) < 1:
        raise ValueError("max_shift must be >= 1")
    return max_shift
