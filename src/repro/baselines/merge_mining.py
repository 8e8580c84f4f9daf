"""Merge mining of partial periodic patterns (paper reference [4]).

The paper's reference [4] — Aref, Elfeky, Elmagarmid, *Incremental,
Online, and Merge Mining of Partial Periodic Patterns* (TKDE) — extends
the same authors' line with three modes; this module implements the
**merge** mode for the Han-style (segment-count) semantics: mine two
series chunks independently, then combine the mined structures into the
result for the concatenation *without touching the raw data again*.

Works on the max-subpattern hit-set trees of
:mod:`repro.baselines.max_subpattern`: hit counts are additive over
segment-aligned chunks (each full period segment lives wholly in one
chunk), so merging is a counted union of the trees over the union
``C_max``, followed by the usual tree-counted Apriori enumeration.

Alignment requirement: every chunk except the last must have a length
divisible by the period — otherwise a segment straddles the boundary
and its count belongs to neither chunk.  ``merge_mine`` enforces this
and the test suite pins merge-vs-monolithic equality.

(The EDBT paper's own F2 semantics has its online counterpart in
:class:`repro.streaming.online.OnlineMiner`; merge mining is the batch
sibling for distributed or archived chunks.)
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.patterns import PeriodicPattern
from ..core.sequence import SymbolSequence
from .max_subpattern import Items, MaxSubpatternMiner, MaxSubpatternTree

__all__ = ["merge_trees", "MergeMiner"]


def merge_trees(
    left: MaxSubpatternTree, right: MaxSubpatternTree
) -> MaxSubpatternTree:
    """Counted union of two hit-set trees.

    The merged root is the union of both ``C_max`` item sets (an item
    frequent in either chunk may be frequent overall; the enumeration
    threshold re-checks every count against the combined segment
    total).  Hit patterns and their counts are preserved verbatim —
    counts are additive because each segment was counted exactly once
    in exactly one chunk.
    """
    if left.root_items != right.root_items:
        raise ValueError(
            "trees must share one candidate max-pattern; build per-chunk "
            "trees against the merged global C_max (see MergeMiner)"
        )
    merged = MaxSubpatternTree(left.root_items)
    for source in (left, right):
        for items, count in source.hit_patterns():
            for _ in range(count):
                merged.insert(items)
    return merged


class MergeMiner:
    """Mine chunks independently, merge, enumerate once.

    Parameters
    ----------
    min_confidence:
        Minimum fraction of (combined) segments a pattern must match.
    max_arity:
        Cap on fixed positions per pattern.
    """

    def __init__(self, min_confidence: float = 0.5, max_arity: int | None = None):
        self._miner = MaxSubpatternMiner(
            min_confidence=min_confidence, max_arity=max_arity
        )
        self._min_confidence = min_confidence

    def merge_mine(
        self, chunks: Sequence[SymbolSequence], period: int
    ) -> list[PeriodicPattern]:
        """Patterns of the concatenation, from per-chunk mining + merge.

        Every chunk but the last must be segment-aligned (length
        divisible by ``period``); all chunks must share one alphabet.
        """
        if not chunks:
            raise ValueError("at least one chunk is required")
        if period < 1:
            raise ValueError("period must be >= 1")
        alphabet = chunks[0].alphabet
        for chunk in chunks[1:]:
            if chunk.alphabet != alphabet:
                raise ValueError("chunks must share one alphabet")
        for chunk in chunks[:-1]:
            if chunk.length % period:
                raise ValueError(
                    "all chunks but the last must be segment-aligned "
                    f"(length divisible by {period})"
                )

        total_segments = sum(chunk.length // period for chunk in chunks)
        if total_segments == 0:
            return []

        # Phase 1 (exchangeable): per-chunk item counts are additive, so
        # the *global* F1 — and therefore the global C_max — is known
        # before any tree is built.  An item locally infrequent in every
        # chunk can still be globally frequent; this phase catches it.
        global_counts: dict[tuple[int, int], int] = {}
        for chunk in chunks:
            for item, count in self._miner.item_counts(chunk, period).items():
                global_counts[item] = global_counts.get(item, 0) + count
        threshold = self._min_confidence * total_segments
        c_max: Items = tuple(
            sorted(item for item, count in global_counts.items() if count >= threshold)
        )

        # Phase 2: every chunk's tree is built against the same global
        # C_max, so hit counts merge by plain addition.
        trees = [
            self._miner.build_tree(chunk, period, root=c_max) for chunk in chunks
        ]
        merged = trees[0]
        for tree in trees[1:]:
            merged = merge_trees(merged, tree)
        return self._miner.mine_tree(merged, period, total_segments)
