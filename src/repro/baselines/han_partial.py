"""Partial periodic pattern mining for a *known* period ([11], Han et al.).

The classical second stage of every multi-pass pipeline the paper
discusses: once a candidate period ``p`` is known, mine all partial
periodic patterns of length ``p`` Apriori-style.  Following Han et al.,
a pattern's frequency counts the period segments it matches (each
segment independently), over ``floor(n / p)`` full segments — note this
differs from the EDBT paper's consecutive-repetition (``F2``) support,
which is what lets the two notions be compared in the ablation bench.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..core.candidates import check_max_arity, levelwise
from ..core.patterns import PeriodicPattern
from ..core.sequence import SymbolSequence

__all__ = ["HanPartialMiner"]


class HanPartialMiner:
    """Apriori miner of partial periodic patterns at a given period.

    Parameters
    ----------
    min_confidence:
        Minimum fraction of segments a pattern must match.
    max_arity:
        Cap on fixed positions per pattern, ``>= 1`` (``None`` =
        unbounded).
    """

    def __init__(self, min_confidence: float = 0.5, max_arity: int | None = None):
        if not 0 < min_confidence <= 1:
            raise ValueError("min_confidence must be in (0, 1]")
        check_max_arity(max_arity)
        self._min_confidence = min_confidence
        self._max_arity = max_arity

    def segments(self, series: SymbolSequence, period: int) -> np.ndarray:
        """The series cut into its ``floor(n/p)`` full period segments."""
        if period < 1:
            raise ValueError("period must be >= 1")
        full = series.length // period
        return series.codes[: full * period].reshape(full, period)

    def mine(self, series: SymbolSequence, period: int) -> list[PeriodicPattern]:
        """All partial periodic patterns at ``period``, support-sorted.

        Frequent (position, symbol) items first, then
        :func:`~repro.core.candidates.levelwise` over their segment
        masks — the Apriori property holds because a pattern matches no
        more segments than any of its sub-patterns.  Ties in support
        keep arity, then generation order.
        """
        matrix = self.segments(series, period)
        rows = matrix.shape[0]
        if rows == 0:
            return []
        min_count = ceil(self._min_confidence * rows)
        # Every (position, code) item of the segments, sorted.
        base = int(matrix.max()) + 1
        positions, codes = np.divmod(np.unique(np.arange(period) * base + matrix), base)
        items = list(zip(positions.tolist(), codes.tolist()))
        masks = matrix.T[positions] == codes[:, None]
        out = [
            PeriodicPattern.single(period, l, k, count / rows)
            for (l, k), count in zip(items, masks.sum(axis=1).tolist())
            if count >= min_count
        ]
        out.extend(
            PeriodicPattern(period, itemset, count / rows)
            for itemset, count in levelwise(items, masks, min_count, self._max_arity)
        )
        out.sort(key=lambda p: (-p.support, p.arity))
        return out
