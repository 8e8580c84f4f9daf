"""Brute-force shift-and-compare miner — the testing oracle.

Sect. 3 of the paper describes the naive approach its convolution
replaces: "shift the time series p positions ... and compare this
shifted version to the original version" for every ``p`` — ``O(n^2)``
overall.  This module implements exactly that, with straightforward
loops, to serve as the independent ground truth the fast miners are
property-tested against.
"""

from __future__ import annotations

from ..core.periodicity import PeriodicityTable
from ..core.sequence import SymbolSequence

__all__ = ["brute_force_table"]


def brute_force_table(
    series: SymbolSequence, max_period: int | None = None
) -> PeriodicityTable:
    """The full ``F2`` evidence table by exhaustive comparison.

    Quadratic and deliberately naive; use only on small series.
    """
    n = series.length
    if max_period is None:
        max_period = n // 2
    codes = series.codes
    counts: dict[int, dict[tuple[int, int], int]] = {}
    for p in range(1, min(max_period, n - 1) + 1):
        table: dict[tuple[int, int], int] = {}
        for j in range(n - p):
            if codes[j] == codes[j + p]:
                key = (int(codes[j]), j % p)
                table[key] = table.get(key, 0) + 1
        if table:
            counts[p] = table
    return PeriodicityTable(n, series.alphabet, counts)
