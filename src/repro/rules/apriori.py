"""Apriori frequent-itemset and association-rule mining.

The substrate the cyclic-rules miner runs once per time unit — the
classic algorithm of Agrawal & Srikant (VLDB 1994), which the EDBT paper
cites for its anti-monotonicity footnote.  Transactions are frozensets
of hashable items; the level-wise search is the pattern miners' own,
:func:`repro.core.candidates.levelwise`, over one bool mask per item.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import Hashable

import numpy as np

from ..core.candidates import SearchBudgetError, levelwise

__all__ = ["Rule", "frequent_itemsets", "association_rules"]

Itemset = frozenset


@dataclass(frozen=True, slots=True)
class Rule:
    """An association rule ``antecedent -> consequent``."""

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float

    @property
    def items(self) -> Itemset:
        """The union of both sides."""
        return self.antecedent | self.consequent

    def render(self) -> str:
        """Human-readable ``{a, b} -> {c}`` form with metrics."""
        lhs = "{" + ", ".join(map(str, sorted(self.antecedent, key=str))) + "}"
        rhs = "{" + ", ".join(map(str, sorted(self.consequent, key=str))) + "}"
        return f"{lhs} -> {rhs}  (sup {self.support:.2f}, conf {self.confidence:.2f})"


def frequent_itemsets(
    transactions: Sequence[Iterable[Hashable]],
    min_support: float,
    max_size: int | None = None,
) -> dict[Itemset, int]:
    """All itemsets with support ``>= min_support`` and their counts.

    Level-wise Apriori: frequent item ``i`` (by ``str`` order) becomes
    the :func:`~repro.core.candidates.levelwise` item ``(i, 0)`` with one
    bool per transaction, so every frequent k-itemset is joined with
    each later frequent item and counted by ANDing masks.  A level over
    the search's budget raises ``ValueError`` naming ``max_size`` and
    ``min_support``.
    """
    if not 0 < min_support <= 1:
        raise ValueError("min_support must be in (0, 1]")
    baskets = [frozenset(t) for t in transactions]
    if not baskets:
        raise ValueError("at least one transaction is required")
    min_count = ceil(min_support * len(baskets))
    singles = Counter(item for basket in baskets for item in basket)
    # Only frequent items get a mask row, so the masks stay within
    # (total basket size / min_count) x transactions cells.
    universe = sorted((i for i, n in singles.items() if n >= min_count), key=str)
    row = {item: i for i, item in enumerate(universe)}
    masks = np.zeros((len(universe), len(baskets)), dtype=bool)
    for column, basket in enumerate(baskets):
        masks[[row[item] for item in basket if item in row], column] = True
    counts: dict[Itemset, int] = {frozenset([item]): singles[item] for item in universe}
    items = [(i, 0) for i in range(len(universe))]
    try:
        found = levelwise(items, masks, min_count, max_size)
    except SearchBudgetError as error:
        raise ValueError(f"{error.cost}; raise min_support or cap max_size") from None
    counts.update(
        (frozenset(universe[i] for i, _ in itemset), count) for itemset, count in found
    )
    return counts


def association_rules(
    itemset_counts: dict[Itemset, int],
    transaction_count: int,
    min_confidence: float,
) -> list[Rule]:
    """Rules from frequent itemsets with confidence ``>= min_confidence``.

    Every non-empty proper subset of each frequent itemset is tried as
    the antecedent; confidence is ``count(itemset) / count(antecedent)``.
    Sorted by (confidence, support) descending.
    """
    if not 0 < min_confidence <= 1:
        raise ValueError("min_confidence must be in (0, 1]")
    if transaction_count < 1:
        raise ValueError("transaction_count must be >= 1")
    rules: list[Rule] = []
    for itemset, count in itemset_counts.items():
        if len(itemset) < 2:
            continue
        support = count / transaction_count
        for size in range(1, len(itemset)):
            for antecedent_items in combinations(sorted(itemset, key=str), size):
                antecedent = frozenset(antecedent_items)
                antecedent_count = itemset_counts.get(antecedent)
                if not antecedent_count:
                    continue
                confidence = count / antecedent_count
                if confidence >= min_confidence:
                    rules.append(
                        Rule(
                            antecedent=antecedent,
                            consequent=itemset - antecedent,
                            support=support,
                            confidence=confidence,
                        )
                    )
    rules.sort(key=lambda r: (-r.confidence, -r.support, str(sorted(map(str, r.items)))))
    return rules
