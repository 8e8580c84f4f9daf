"""Tests for repro.rules (Apriori, cyclic rules, market simulator)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules import (
    Cycle,
    CyclicRuleMiner,
    MarketBasketSimulator,
    PlantedCycle,
    association_rules,
    frequent_itemsets,
)

BASKETS = [
    {"a", "b", "c"},
    {"a", "b"},
    {"a", "c"},
    {"b", "c"},
    {"a", "b", "c"},
]


class TestFrequentItemsets:
    def test_counts(self):
        counts = frequent_itemsets(BASKETS, min_support=0.4)
        assert counts[frozenset({"a"})] == 4
        assert counts[frozenset({"a", "b"})] == 3
        assert counts[frozenset({"a", "b", "c"})] == 2

    def test_triple_below_threshold_pruned(self):
        counts = frequent_itemsets(BASKETS, min_support=0.5)
        assert frozenset({"a", "b", "c"}) not in counts  # 2/5 < 0.5

    def test_threshold_prunes(self):
        counts = frequent_itemsets(BASKETS, min_support=0.7)
        assert frozenset({"a", "b"}) not in counts
        assert frozenset({"a"}) in counts

    def test_max_size(self):
        counts = frequent_itemsets(BASKETS, min_support=0.4, max_size=1)
        assert all(len(s) == 1 for s in counts)

    def test_apriori_anti_monotonicity(self):
        counts = frequent_itemsets(BASKETS, min_support=0.2)
        for itemset, count in counts.items():
            for item in itemset:
                smaller = itemset - {item}
                if smaller:
                    assert counts[smaller] >= count

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            frequent_itemsets([], 0.5)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            frequent_itemsets(BASKETS, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        baskets=st.lists(
            st.sets(st.sampled_from([*"pqrstu", 1, 2]), max_size=8),
            min_size=1,
            max_size=30,
        ),
        min_support=st.sampled_from([0.05, 0.1, 0.25, 0.4, 0.56, 0.7, 1.0]),
        max_size=st.none() | st.integers(0, 4),
    )
    def test_exhaustive_against_brute_force(self, baskets, min_support, max_size):
        """Every itemset of 1 .. max_size items held in >= min_support of
        the baskets, with its count — and nothing else."""
        counts = frequent_itemsets(baskets, min_support, max_size)
        items = sorted(set().union(*baskets), key=str)
        top = len(items) if max_size is None else max(max_size, 1)
        expected = {}
        for size in range(1, top + 1):
            for combo in combinations(items, size):
                actual = sum(1 for b in baskets if set(combo) <= b)
                if actual >= min_support * len(baskets):
                    expected[frozenset(combo)] = actual
        assert counts == expected

    def test_refuses_a_level_over_the_join_budget(self):
        # 2 000 items in every basket: size 2 alone needs
        # 2000 * 1999 / 2 = 1 999 000 joins.
        baskets = [set(range(2000))] * 3
        with pytest.raises(ValueError, match="max_size") as refused:
            frequent_itemsets(baskets, 0.5)
        assert "min_support" in str(refused.value)
        assert "1,999,000 joins" in str(refused.value)
        assert "--periods" not in str(refused.value)
        assert len(frequent_itemsets(baskets, 0.5, max_size=1)) == 2000


class TestAssociationRules:
    def test_confidence_computation(self):
        counts = frequent_itemsets(BASKETS, min_support=0.4)
        rules = association_rules(counts, len(BASKETS), min_confidence=0.7)
        ab = next(
            r for r in rules
            if r.antecedent == frozenset({"b"}) and r.consequent == frozenset({"a"})
        )
        assert ab.confidence == pytest.approx(3 / 4)
        assert ab.support == pytest.approx(3 / 5)

    def test_threshold_filters(self):
        counts = frequent_itemsets(BASKETS, min_support=0.4)
        rules = association_rules(counts, len(BASKETS), min_confidence=0.99)
        assert all(r.confidence >= 0.99 for r in rules)

    def test_render(self):
        counts = frequent_itemsets(BASKETS, min_support=0.4)
        rules = association_rules(counts, len(BASKETS), min_confidence=0.6)
        assert "->" in rules[0].render()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            association_rules({}, 0, 0.5)
        with pytest.raises(ValueError):
            association_rules({}, 5, 0.0)


class TestCycleDetection:
    def test_perfect_cycle(self):
        miner = CyclicRuleMiner(max_period=6, minimal_only=False)
        holds = [t % 3 == 1 for t in range(18)]
        cycles = miner.detect_cycles(holds)
        assert Cycle(3, 1) in cycles
        assert Cycle(6, 1) in cycles  # the non-minimal echo
        assert Cycle(3, 0) not in cycles

    def test_minimal_suppresses_multiples(self):
        miner = CyclicRuleMiner(max_period=6, minimal_only=True)
        holds = [t % 3 == 1 for t in range(18)]
        cycles = miner.detect_cycles(holds)
        assert cycles == [Cycle(3, 1)]

    def test_always_holding_rule(self):
        miner = CyclicRuleMiner(max_period=4, minimal_only=True)
        cycles = miner.detect_cycles([True] * 12)
        assert cycles == [Cycle(1, 0)]

    def test_single_miss_breaks_cycle(self):
        miner = CyclicRuleMiner(max_period=4, minimal_only=False)
        holds = [t % 2 == 0 for t in range(12)]
        holds[6] = False
        cycles = miner.detect_cycles(holds)
        assert Cycle(2, 0) not in cycles
        assert Cycle(4, 0) in cycles  # units 0,4,8 still all hold

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CyclicRuleMiner().detect_cycles([])


class TestEndToEnd:
    def test_recovers_planted_cycles(self):
        simulator = MarketBasketSimulator(
            units=48,
            transactions_per_unit=100,
            planted=(
                PlantedCycle(("coffee",), "pastry", period=4, offset=1),
                PlantedCycle(("bread",), "milk", period=6, offset=0, strength=0.9),
            ),
            anchor_rate=0.5,
        )
        units = simulator.generate(np.random.default_rng(7))
        miner = CyclicRuleMiner(min_support=0.25, min_confidence=0.7, max_period=12)
        rules = miner.mine(units)
        recovered = {
            (cycle.period, cycle.offset)
            for rule in rules
            for cycle in rule.cycles
        }
        assert (4, 1) in recovered
        assert (6, 0) in recovered

    def test_no_cycles_in_acyclic_data(self):
        simulator = MarketBasketSimulator(
            units=40, transactions_per_unit=60, planted=()
        )
        units = simulator.generate(np.random.default_rng(8))
        miner = CyclicRuleMiner(min_support=0.4, min_confidence=0.9, max_period=10)
        rules = miner.mine(units)
        # Background co-occurrence at base_rate cannot sustain a rule in
        # *every* unit of any residue class with high thresholds.
        assert not rules

    def test_simulator_validation(self):
        with pytest.raises(ValueError):
            MarketBasketSimulator(units=0)
        with pytest.raises(ValueError):
            PlantedCycle((), "milk", period=3, offset=0)
        with pytest.raises(ValueError):
            PlantedCycle(("milk",), "milk", period=3, offset=0)
        with pytest.raises(ValueError):
            PlantedCycle(("a",), "b", period=3, offset=3)
        with pytest.raises(ValueError):
            MarketBasketSimulator(
                planted=(PlantedCycle(("caviar",), "milk", period=2, offset=0),)
            )

    def test_rule_render(self):
        simulator = MarketBasketSimulator(units=12, transactions_per_unit=60)
        units = simulator.generate(np.random.default_rng(9))
        rules = CyclicRuleMiner(
            min_support=0.2, min_confidence=0.6, max_period=6
        ).mine(units)
        for rule in rules:
            assert "cycles:" in rule.render()
