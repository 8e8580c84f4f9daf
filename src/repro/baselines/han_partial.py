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

from ..core.candidates import SearchBudgetError, check_max_arity, levelwise
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

    def item_counts(
        self, series: SymbolSequence, period: int
    ) -> dict[tuple[int, int], int]:
        """Every (position, symbol) item of the segments, sorted, with the
        number of segments holding it.

        Additive across segment-aligned chunks — the quantity merge
        mining exchanges instead of raw data.
        """
        matrix = self.segments(series, period)
        base = int(matrix.max(initial=0)) + 1
        keys, counts = np.unique(np.arange(period) * base + matrix, return_counts=True)
        positions, symbols = np.divmod(keys, base)
        return dict(zip(zip(positions.tolist(), symbols.tolist()), counts.tolist()))

    def mine(self, series: SymbolSequence, period: int) -> list[PeriodicPattern]:
        """All partial periodic patterns at ``period``, support-sorted.

        Every (position, symbol) item's segment mask goes to the
        Apriori search — a pattern matches no more segments than any of
        its sub-patterns.
        """
        matrix = self.segments(series, period)
        items = list(self.item_counts(series, period))
        if not items:
            return []
        positions, codes = np.array(items).T
        masks = matrix.T[positions] == codes[:, None]
        return self._patterns(period, items, masks, matrix.shape[0])

    def _patterns(
        self,
        period: int,
        items: list[tuple[int, int]],
        masks: np.ndarray,
        segments: int,
    ) -> list[PeriodicPattern]:
        """The patterns whose ``(items, columns)`` segment masks hold in
        ``>= min_confidence`` of ``segments`` (columns for segments
        holding no item may be left out): frequent items, then
        :func:`~repro.core.candidates.levelwise`, support-sorted with
        ties by arity, then generation order."""
        min_count = ceil(self._min_confidence * segments)
        out = [
            PeriodicPattern.single(period, l, k, count / segments)
            for (l, k), count in zip(items, masks.sum(axis=1).tolist())
            if count >= min_count
        ]
        try:
            found = levelwise(items, masks, min_count, self._max_arity)
        except SearchBudgetError as error:
            raise ValueError(f"{error.cost}; cap max_arity") from None
        out.extend(
            PeriodicPattern(period, itemset, count / segments) for itemset, count in found
        )
        out.sort(key=lambda p: (-p.support, p.arity))
        return out
