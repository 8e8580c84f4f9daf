"""Candidate periodic patterns and their support (Definition 3).

Given the per-position periodic symbol sets
``S_{p,l} = {s : s periodic with period p at position l w.r.t. psi}``,
Definition 3 forms candidates from the Cartesian product
``S_p = (S_{p,0} u {*}) x ... x (S_{p,p-1} u {*})`` and estimates each
candidate's support from aligned witnesses.

Two generators are provided:

* :func:`cartesian_candidates` — the paper-literal product (guarded by a
  hard cap, since the product is exponential in the number of non-empty
  positions);
* :func:`mine_patterns` — an Apriori level-wise search exploiting the
  anti-monotonicity the paper itself points out in its footnote ("this
  is similar to the Apriori property of the association rules"): a
  pattern's support never exceeds any sub-pattern's, so candidates are
  grown one fixed position at a time and pruned against ``psi``.

Support counting uses the *segment matrix*: entry ``(m, l)`` records the
symbol that repeated from segment ``m`` to segment ``m+1`` at offset
``l`` (or -1).  A candidate's aligned-witness count ``|W'_p|`` equals
the number of rows satisfying every fixed position — the test suite
pins this equivalence to the paper's witness-set formulation.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .patterns import PeriodicPattern
from .periodicity import PeriodicityTable, SymbolPeriodicity
from .projection import projection_pairs
from .sequence import SymbolSequence

__all__ = [
    "segment_match_matrix",
    "single_symbol_patterns",
    "cartesian_candidates",
    "mine_patterns",
    "pattern_support",
]

#: Refuse paper-literal Cartesian products bigger than this.
_CARTESIAN_CAP = 200_000


def segment_match_matrix(series: SymbolSequence, period: int) -> np.ndarray:
    """Matrix of symbols that repeat across adjacent period segments.

    Shape ``(R, period)`` with ``R = ceil(n / period) - 1`` rows, one per
    adjacent segment pair.  Entry ``(m, l)`` is the symbol code ``k``
    when ``t_{m p + l} = t_{(m+1) p + l} = s_k`` and ``-1`` otherwise.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    codes = series.codes
    n = codes.size
    rows = max(-(-n // period) - 1, 0)
    matrix = np.full((rows, period), -1, dtype=np.int64)
    if n <= period:
        return matrix
    j = np.arange(n - period)
    matched = codes[j] == codes[j + period]
    j = j[matched]
    matrix[j // period, j % period] = codes[j]
    return matrix


def single_symbol_patterns(
    table: PeriodicityTable, psi: float, period: int | None = None
) -> list[PeriodicPattern]:
    """All periodic single-symbol patterns w.r.t. ``psi`` (Definition 2)."""
    return [
        PeriodicPattern.single(h.period, h.position, h.symbol_code, h.support)
        for h in table.periodicities(psi, period=period)
    ]


def pattern_support(pattern: PeriodicPattern, matrix: np.ndarray) -> float:
    """Support of a (multi-symbol) pattern from a segment matrix.

    ``|W'_p| / R``: the fraction of adjacent segment pairs in which every
    fixed position of the pattern repeats its symbol.
    """
    rows = matrix.shape[0]
    if rows == 0:
        return 0.0
    ok = np.ones(rows, dtype=bool)
    for l, k in pattern.items:
        ok &= matrix[:, l] == k
    return float(np.count_nonzero(ok)) / rows


def cartesian_candidates(
    periodicities: list[SymbolPeriodicity], period: int
) -> Iterator[PeriodicPattern]:
    """Paper-literal Definition 3: the full Cartesian product for one period.

    Yields every ordered choice of "a periodic symbol or ``*``" per
    position, skipping the all-don't-care pattern.  Raises when the
    product would exceed the safety cap — use :func:`mine_patterns` for
    real data.
    """
    per_position: dict[int, list[int]] = {}
    for h in periodicities:
        if h.period == period:
            per_position.setdefault(h.position, []).append(h.symbol_code)
    choices: list[list[int | None]] = []
    size = 1
    for l in range(period):
        options: list[int | None] = [None] + sorted(per_position.get(l, []))
        size *= len(options)
        choices.append(options)
    if size > _CARTESIAN_CAP:
        raise ValueError(
            f"Cartesian product of size {size} exceeds the cap "
            f"({_CARTESIAN_CAP}); use mine_patterns"
        )
    for combo in product(*choices):
        if any(k is not None for k in combo):
            yield PeriodicPattern(period, tuple(combo))


def mine_patterns(
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    periods: list[int] | None = None,
    max_arity: int | None = None,
) -> list[PeriodicPattern]:
    """Apriori-style mining of all periodic patterns with support >= psi.

    Parameters
    ----------
    series:
        The mined series (needed to count aligned segment supports).
    table:
        Evidence table from either miner.
    psi:
        Periodicity threshold in ``(0, 1]``.
    periods:
        Restrict to these periods; defaults to every candidate period
        of the table at ``psi``.
    max_arity:
        Cap on the number of fixed positions per pattern (``None`` =
        unbounded).

    Returns
    -------
    Every pattern (single- and multi-symbol) whose support is at least
    ``psi``, sorted by (period, arity, slots).  Single-symbol supports
    follow Definition 2; multi-symbol supports use the aligned-segment
    count over ``ceil(n/p) - 1``.

    Warning
    -------
    Definition 3's pattern space is exponential: if ``m`` positions of a
    period carry high-support symbols whose joint support stays above
    ``psi``, all ``2**m`` combinations qualify and *will* be returned.
    On strongly periodic data restrict ``periods`` (mining a base period
    instead of its multiples) and/or set ``max_arity``.
    """
    if not 0 < psi <= 1:
        raise ValueError("the periodicity threshold must be in (0, 1]")
    if periods is None:
        periods = table.candidate_periods(psi)
    out: list[PeriodicPattern] = []
    for p in periods:
        out.extend(_mine_period(series, table, psi, p, max_arity))
    out.sort(
        key=lambda pat: (
            pat.period,
            pat.arity,
            tuple(-1 if k is None else k for k in pat.slots),
        )
    )
    return out


def _mine_period(
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    period: int,
    max_arity: int | None,
) -> list[PeriodicPattern]:
    """Level-wise search for one period."""
    hits = table.periodicities(psi, period=period)
    if not hits:
        return []
    matrix = segment_match_matrix(series, period)
    rows = matrix.shape[0]
    out: list[PeriodicPattern] = [
        PeriodicPattern.single(h.period, h.position, h.symbol_code, h.support)
        for h in hits
    ]
    if rows == 0:
        return out

    # Level 1 items with their row masks; items are (position, code).
    item_masks: dict[tuple[int, int], np.ndarray] = {}
    for h in hits:
        item_masks[(h.position, h.symbol_code)] = (
            matrix[:, h.position] == h.symbol_code
        )
    # Frontier: itemset (sorted tuple of items) -> row mask, kept only if
    # the aligned support can still reach psi.  The support itself is
    # compared (not count >= psi * rows), so a support equal to psi
    # after rounding is kept, as in PeriodicityTable.periodicities.
    frontier: dict[tuple[tuple[int, int], ...], np.ndarray] = {}
    for item, mask in sorted(item_masks.items()):
        if np.count_nonzero(mask) / rows >= psi:
            frontier[(item,)] = mask

    arity = 1
    while frontier and (max_arity is None or arity < max_arity):
        next_frontier: dict[tuple[tuple[int, int], ...], np.ndarray] = {}
        for itemset, mask in frontier.items():
            last_position = itemset[-1][0]
            for item, item_mask in item_masks.items():
                if item[0] <= last_position:
                    continue  # grow rightwards only: canonical, no dupes
                joined = mask & item_mask
                count = int(np.count_nonzero(joined))
                if count / rows >= psi:
                    grown = itemset + (item,)
                    next_frontier[grown] = joined
                    out.append(
                        PeriodicPattern.from_items(
                            period, dict(grown), count / rows
                        )
                    )
        frontier = next_frontier
        arity += 1
    return out
