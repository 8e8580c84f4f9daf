"""Han et al.'s max-subpattern hit-set algorithm ([11], ICDE 1999).

The published partial periodic pattern miner for a *known* period — the
algorithm a multi-pass pipeline would actually run per candidate period.
Two scans:

1. count the frequent 1-patterns ``F1`` (one symbol fixed, per
   position), and form the *candidate max-pattern* ``C_max`` whose slot
   ``l`` holds every frequent symbol at ``l``;
2. for each period segment, compute its *maximal hit subpattern* (the
   segment intersected with ``C_max``) and insert it into the
   **max-subpattern tree**, a counted trie of hit patterns.

Every partial pattern's frequency is then the sum of the counts of the
tree nodes whose pattern contains it — no further data scans.  The
enumeration reads the tree once into bool item masks (one column per
counted segment) and runs :class:`~repro.baselines.HanPartialMiner`'s
own Apriori search (:func:`~repro.core.candidates.levelwise`), so the
two miners agree pattern for pattern, support for support and in order;
the test suite also checks every count against
:meth:`MaxSubpatternTree.frequency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.patterns import PeriodicPattern
from ..core.sequence import SymbolSequence
from .han_partial import HanPartialMiner

__all__ = ["MaxSubpatternTree", "MaxSubpatternMiner"]

Items = tuple[tuple[int, int], ...]  # ((position, symbol_code), ...) sorted


@dataclass
class _Node:
    """One max-subpattern tree node: a hit pattern with its count."""

    items: Items
    count: int = 0
    children: dict[Items, "_Node"] = field(default_factory=dict)


class MaxSubpatternTree:
    """Counted trie of maximal hit subpatterns.

    Nodes are keyed by their item sets; an insertion bumps the exact
    node's count, creating intermediate nodes with count 0 as needed
    (linked by dropping one item at a time, as in the published
    structure).
    """

    def __init__(self, root_items: Items):
        self._nodes: dict[Items, _Node] = {root_items: _Node(root_items)}
        self._root = root_items

    @property
    def root_items(self) -> Items:
        """The candidate max-pattern ``C_max`` item set."""
        return self._root

    @property
    def node_count(self) -> int:
        """Number of materialised nodes."""
        return len(self._nodes)

    def insert(self, items: Items) -> None:
        """Record one segment's maximal hit subpattern.

        Creates only the nodes along the pattern's *canonical path* from
        the root — ``C_max`` with the missing items removed one at a
        time in item order — which is Han's published structure: each
        node has one parent chain, so an insertion materialises at most
        ``|missing|`` intermediate (count-0) nodes, never a lattice.
        """
        if not items:
            return  # a segment hitting nothing contributes no pattern
        node = self._nodes.get(items)
        if node is None:
            node = _Node(items)
            self._nodes[items] = node
            self._link_canonical_path(node)
        node.count += 1

    def _link_canonical_path(self, node: _Node) -> None:
        missing = [item for item in self._root if item not in set(node.items)]
        current = self._nodes[self._root]
        removed: set[tuple[int, int]] = set()
        for item in missing:
            removed.add(item)
            step_items: Items = tuple(
                i for i in self._root if i not in removed
            )
            child = self._nodes.get(step_items)
            if child is None:
                child = _Node(step_items)
                self._nodes[step_items] = child
            current.children.setdefault(step_items, child)
            current = child

    def frequency(self, items: Items) -> int:
        """Total segments whose hit pattern contains ``items``."""
        target = set(items)
        return sum(
            node.count
            for node in self._nodes.values()
            if node.count and target <= set(node.items)
        )

    def hit_patterns(self) -> list[tuple[Items, int]]:
        """The materialised hit patterns with non-zero counts."""
        return [
            (node.items, node.count)
            for node in self._nodes.values()
            if node.count
        ]


class MaxSubpatternMiner(HanPartialMiner):
    """Two-scan partial periodic pattern mining via the hit-set tree.

    Same parameters and patterns as :class:`HanPartialMiner`, counted
    from the tree instead of the segments.
    """

    # -- scan 1 -------------------------------------------------------------------

    def frequent_items(
        self, series: SymbolSequence, period: int
    ) -> dict[tuple[int, int], int]:
        """``F1``: frequent (position, symbol) items with their counts."""
        counts = self.item_counts(series, period)  # validates the period
        segments = series.length // period
        if segments == 0:
            return {}
        threshold = self._min_confidence * segments
        return {item: count for item, count in counts.items() if count >= threshold}

    # -- scan 2 -------------------------------------------------------------------

    def build_tree(
        self,
        series: SymbolSequence,
        period: int,
        root: Items | None = None,
    ) -> MaxSubpatternTree:
        """Second scan: insert each segment's maximal hit subpattern.

        ``root`` overrides the candidate max-pattern — merge mining
        passes the *global* ``C_max`` so per-chunk trees stay mergeable.
        """
        if root is None:
            f1 = self.frequent_items(series, period)
            c_max: Items = tuple(sorted(f1))
        else:
            c_max = tuple(sorted(root))
            if any(not 0 <= l < period for l, _ in c_max):
                raise ValueError("root items outside the period")
        tree = MaxSubpatternTree(c_max)
        for row in self.segments(series, period).tolist():
            # One symbol per position, so ``hit`` is sorted and
            # position-unique by construction.
            tree.insert(tuple((l, s) for l, s in c_max if row[l] == s))
        return tree

    # -- enumeration -----------------------------------------------------------------

    def mine(self, series: SymbolSequence, period: int) -> list[PeriodicPattern]:
        """All partial periodic patterns at ``period``, support-sorted."""
        segments = series.length // period
        if segments == 0:
            return []
        return self.mine_tree(self.build_tree(series, period), period, segments)

    def mine_tree(
        self, tree: MaxSubpatternTree, period: int, segments: int
    ) -> list[PeriodicPattern]:
        """The patterns a tree over ``segments`` period segments holds.

        One column per segment counted in the tree (each hit pattern
        repeated by its count), one bool row per ``C_max`` item, then
        Han's enumeration over them — never a data scan.
        """
        items = sorted(tree.root_items)
        row = {item: i for i, item in enumerate(items)}
        hits = tree.hit_patterns()
        held = np.zeros((len(items), len(hits)), dtype=bool)
        for column, (hit, _) in enumerate(hits):
            held[[row[item] for item in hit if item in row], column] = True
        masks = np.repeat(held, [count for _, count in hits], axis=1)
        return self._patterns(period, items, masks, segments)
