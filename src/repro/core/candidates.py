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
  grown one fixed position at a time and pruned against ``psi`` by
  :func:`levelwise`, which Han et al.'s miner runs too.

Support counting uses the *segment matrix*: entry ``(m, l)`` records the
symbol that repeated from segment ``m`` to segment ``m+1`` at offset
``l`` (or -1).  A candidate's aligned-witness count ``|W'_p|`` equals
the number of rows satisfying every fixed position — the test suite
pins this equivalence to the paper's witness-set formulation.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterator

import numpy as np

from .patterns import PeriodicPattern
from .periodicity import PeriodicityTable, SymbolPeriodicity
from .sequence import SymbolSequence, whole

__all__ = [
    "segment_match_matrix",
    "single_symbol_patterns",
    "cartesian_candidates",
    "check_max_arity",
    "levelwise",
    "SearchBudgetError",
    "mine_patterns",
    "pattern_support",
]

#: Refuse paper-literal Cartesian products bigger than this.
_CARTESIAN_CAP = 200_000

#: :func:`levelwise` refuses a level needing more joins (frontier
#: itemsets times the items to their right) than this, and ANDs at most
#: ``_JOIN_CHUNK_CELLS`` mask cells at once.
_JOIN_BUDGET = 1_000_000
_JOIN_CHUNK_CELLS = 1 << 24
#: ... or keeping a frontier of more mask cells (surviving itemsets times
#: rows, one byte each) than this: 128 MiB, 5.3x the largest frontier
#: kept (25,104,597 cells, ``repro experiment table3 --quick``, arity 10
#: over 119 rows) over the tier-1 suite, the examples, ``repro
#: experiment all --quick``, the CI bench line and both perfbench
#: ``--trace 1`` workloads.
_FRONTIER_CELL_BUDGET = 1 << 27


class SearchBudgetError(ValueError):
    """A :func:`levelwise` level over budget: ``cost`` says what it needs,
    the message adds :func:`mine_patterns`'s knobs (other callers
    re-raise naming theirs)."""

    def __init__(self, cost: str) -> None:
        super().__init__(
            f"{cost}; cap max_arity (--max-arity) or mine fewer periods (--periods)"
        )
        self.cost = cost


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
    positions = sorted(per_position)
    choices = [[None, *sorted(per_position[l])] for l in positions]
    size = prod(len(options) for options in choices)
    if size > _CARTESIAN_CAP:
        raise ValueError(
            f"Cartesian product of size {size} exceeds the cap "
            f"({_CARTESIAN_CAP}); use mine_patterns"
        )
    for combo in product(*choices):
        items = tuple((l, k) for l, k in zip(positions, combo) if k is not None)
        if items:
            yield PeriodicPattern(period, items)


def check_max_arity(max_arity: int | None) -> None:
    """Reject a ``max_arity`` that is neither ``None`` nor an integer ``>= 1``."""
    if max_arity is not None and whole("max_arity", max_arity) < 1:
        raise ValueError("max_arity must be >= 1 (or None for no cap)")


def levelwise(
    items: list[tuple[int, int]],
    masks: np.ndarray,
    min_count: int,
    max_arity: int | None = None,
) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Apriori search: every itemset of 2 .. ``max_arity`` items (one per
    position) whose row masks share ``>= min_count`` rows, with that count.

    ``items`` are ``(position, code)`` pairs sorted by position, then
    code; ``masks`` is the ``(items, rows)`` bool matrix of the rows each
    holds in.  Output runs level by level, each level in parent order,
    then item order.  A level ANDs every frontier itemset with every item
    to its right, ``_JOIN_CHUNK_CELLS`` mask cells at a time; a level
    needing more than ``_JOIN_BUDGET`` joins, or keeping more than
    ``_FRONTIER_CELL_BUDGET`` mask cells, raises :class:`SearchBudgetError`.
    """
    keep = (masks.sum(axis=1) >= min_count).nonzero()[0]
    items = [items[i] for i in keep.tolist()]
    masks = masks[keep]
    # right[i]: the first item positioned after item i's position.
    positions = np.array([position for position, _ in items], dtype=np.int64)
    right = np.searchsorted(positions, positions, side="right")
    # The frontier: its itemsets, the first item to the right of each,
    # and their row masks.
    itemsets: list[tuple[tuple[int, int], ...]] = [(item,) for item in items]
    starts, frontier = right, masks
    step = max(1, _JOIN_CHUNK_CELLS // max(masks.shape[1], 1))
    out: list[tuple[tuple[tuple[int, int], ...], int]] = []
    arity = 1
    while itemsets and (max_arity is None or arity < max_arity):
        widths = len(items) - starts
        joins = int(widths.sum())
        if joins > _JOIN_BUDGET:
            raise SearchBudgetError(
                f"growing itemsets to {arity + 1} items needs {joins:,} joins, "
                f"over the budget of {_JOIN_BUDGET:,}"
            )
        if joins == 0:  # no itemset has an item to its right
            break
        # Every (frontier itemset, item to its right) pair, in order.
        parent = np.repeat(np.arange(widths.size), widths)
        child = np.arange(joins) + np.repeat(starts + widths - widths.cumsum(), widths)
        chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        cells = 0
        for lo in range(0, joins, step):
            joined = frontier[parent[lo:lo + step]] & masks[child[lo:lo + step]]
            count = joined.sum(axis=1)
            ok = (count >= min_count).nonzero()[0]
            cells += ok.size * masks.shape[1]
            if cells > _FRONTIER_CELL_BUDGET:
                raise SearchBudgetError(
                    f"growing itemsets to {arity + 1} items keeps over "
                    f"{_FRONTIER_CELL_BUDGET:,} mask cells (itemsets x rows)"
                )
            chunks.append((ok + lo, count[ok], joined[ok]))
        survivors, counts, frontier = (np.concatenate(part) for part in zip(*chunks))
        parent, child = parent[survivors], child[survivors]
        itemsets = [
            itemsets[e] + (items[i],)
            for e, i in zip(parent.tolist(), child.tolist())
        ]
        out.extend(zip(itemsets, counts.tolist()))
        starts = right[child]
        arity += 1
    return out


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
    ``psi``, in ``(period, arity, items)`` order — the order the search
    finds them: each distinct period ascending, its single-symbol
    patterns by ``(position, code)``, then each :func:`levelwise` level.
    Single-symbol supports follow Definition 2; multi-symbol supports
    use the aligned-segment count over ``ceil(n/p) - 1``.

    Warning
    -------
    Definition 3's pattern space is exponential: if ``m`` positions of a
    period carry high-support symbols whose joint support stays above
    ``psi``, all ``2**m`` combinations qualify and *will* be returned.
    On strongly periodic data restrict ``periods`` (mining a base period
    instead of its multiples) and/or set ``max_arity``; a level over
    the join budget of :func:`levelwise` raises ``ValueError``.
    """
    if not 0 < psi <= 1:
        raise ValueError("the periodicity threshold must be in (0, 1]")
    if periods is None:
        periods = table.candidate_periods(psi)
    out: list[PeriodicPattern] = []
    for p in sorted(set(periods)):
        out.extend(_mine_period(series, table, psi, p, max_arity))
    return out


def _mine_period(
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    period: int,
    max_arity: int | None,
) -> list[PeriodicPattern]:
    """Single-symbol patterns of one period, then its level-wise search."""
    out = single_symbol_patterns(table, psi, period)
    if not out:
        return out
    matrix = segment_match_matrix(series, period)
    rows = matrix.shape[0]
    if rows == 0:
        return out
    items = [pattern.items[0] for pattern in out]
    positions, codes = np.array(items).T
    masks = matrix.T[positions] == codes[:, None]
    # The aligned support itself is compared with psi (not the count with
    # psi * rows), so a support equal to psi after rounding is kept, as
    # in PeriodicityTable.periodicities: min_count is the first count
    # whose support reaches psi.
    min_count = int(np.searchsorted(np.arange(rows + 1) / rows, psi))
    out.extend(
        PeriodicPattern(period, itemset, count / rows)
        for itemset, count in levelwise(items, masks, min_count, max_arity)
    )
    return out
