"""Warping-based periodicity detection (the WARP-style extension).

Fig. 6 of the paper shows its convolution miner collapsing under
insertion/deletion noise: one inserted symbol shifts every later
position off phase, so exact shifted comparison stops matching.  The
authors' follow-up line of work cures this with *time warping* — compare
``T`` to ``T^(p)`` with an edit distance instead of the rigid positional
match, so a bounded amount of local drift is absorbed.

This module implements that extension on this library's substrate:

* :func:`banded_edit_distance` — unit-cost Levenshtein distance
  restricted to a Sakoe-Chiba band (``O(n * band)``);
* :class:`WarpingDetector` — warped confidence per candidate period,
  ``1 - edit(T[:-p], T[p:]) / (n - p)``.

Because each period costs ``O(n * band)``, the detector is meant to
*verify* a shortlist of candidate periods (from the miner, the segment
screen, or domain knowledge), not to scan all ``n/2`` shifts.  The
ablation bench shows it holding high confidence under exactly the
insertion/deletion mixes that break the exact miner.

**Resolution trade-off.**  The band both absorbs noise drift *and*
blurs the period axis: any shift within ``band`` of a true period (or
of one of its multiples) aligns almost as well as the period itself, so
warped confidence has a +-``band`` resolution.  Size the band to the
expected drift per period gap — about ``sqrt(noise_ratio * period)``
for balanced insertion/deletion noise — not larger.
"""

from __future__ import annotations

import numpy as np

from ..core.sequence import SymbolSequence

__all__ = ["banded_edit_distance", "WarpingDetector"]


def banded_edit_distance(a: np.ndarray, b: np.ndarray, band: int) -> int:
    """Levenshtein distance of two code arrays within a diagonal band.

    Cells with ``|i - j| > band`` are never entered; if the true optimal
    alignment drifts further than ``band``, the result upper-bounds it.
    A band narrower than ``|len(a) - len(b)|`` is widened to it, so the
    end cell lies in the band.  Unit costs for substitution, insertion,
    and deletion.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if band < 0:
        raise ValueError("band must be non-negative")
    m, n = a.size, b.size
    band = max(band, abs(m - n))
    if m == 0 or n == 0:
        return max(m, n)
    infinity = m + n + 1
    # Row i stores cells j in [i - band, i + band], width 2*band + 1:
    # column w holds j = i - band + w.  Cells with j < 0 stay at least
    # ``infinity``, so D[i, 0] = D[i-1, 0] + 1 = i falls out of the
    # deletion step; cells with j > n never feed a cell with j <= n.
    width = 2 * band + 1
    ramp = np.arange(width)
    previous = np.full(width, infinity, dtype=np.int64)
    # Row 0: D[0, j] = j for j <= band.
    previous[band : band + min(band, n) + 1] = np.arange(min(band, n) + 1)
    # b_padded[i - 1 + w] is b[j - 1] for cell (i, j); the pads only meet
    # cells outside 1 <= j <= n.
    b_padded = np.zeros(m + width, dtype=np.int64)
    b_padded[band : band + n] = b
    for i in range(1, m + 1):
        # Substitution/match: D[i-1, j-1] is the previous row's same column.
        best = previous + (b_padded[i - 1 : i - 1 + width] != a[i - 1])
        # Deletion: D[i-1, j] is the previous row's next column.
        np.minimum(best[:-1], previous[1:] + 1, out=best[:-1])
        # Insertion D[i, j-1] + 1 within the row: the min-plus prefix scan
        # D[i, j] = min over v <= w of best[v] + (w - v).
        previous = np.minimum.accumulate(best - ramp) + ramp
    return int(previous[band + (n - m)])


class WarpingDetector:
    """Warped periodicity confidence per candidate period.

    Parameters
    ----------
    band:
        Sakoe-Chiba band radius; ``None`` derives
        ``max(4, ceil(1.5 * sqrt(p)))`` per period — head-room for the
        paper's noise ratios while keeping period resolution useful
        (see the module docstring for the trade-off).
    """

    def __init__(self, band: int | None = None):
        if band is not None and band < 0:
            raise ValueError("band must be non-negative")
        self._band = band

    def _band_for(self, period: int) -> int:
        if self._band is not None:
            return self._band
        return max(4, int(np.ceil(1.5 * np.sqrt(period))))

    def confidence(self, series: SymbolSequence, period: int) -> float:
        """Warped confidence ``1 - edit(T[:-p], T[p:]) / (n - p)``."""
        n = series.length
        if not 1 <= period < n:
            raise ValueError(f"period must lie in [1, n); got {period}")
        codes = series.codes
        aligned = n - period
        distance = banded_edit_distance(
            codes[:aligned], codes[period:], self._band_for(period)
        )
        return max(0.0, 1.0 - distance / aligned)

    def scan(
        self, series: SymbolSequence, periods: list[int]
    ) -> dict[int, float]:
        """Warped confidence for a shortlist of candidate periods."""
        if not periods:
            raise ValueError("at least one candidate period is required")
        return {int(p): self.confidence(series, int(p)) for p in periods}

    def best(self, series: SymbolSequence, periods: list[int]) -> int:
        """The shortlist period with the highest warped confidence."""
        scores = self.scan(series, periods)
        return max(scores, key=lambda p: (scores[p], -p))
