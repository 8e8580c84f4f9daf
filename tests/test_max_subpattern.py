"""Tests for repro.baselines.max_subpattern (Han's hit-set algorithm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HanPartialMiner, MaxSubpatternMiner, MaxSubpatternTree
from repro.core import SymbolSequence

from conftest import series_strategy


class TestTree:
    def test_insert_counts(self):
        tree = MaxSubpatternTree((((0, 1)), ((1, 2))))
        tree = MaxSubpatternTree(((0, 1), (1, 2)))
        tree.insert(((0, 1), (1, 2)))
        tree.insert(((0, 1), (1, 2)))
        tree.insert(((0, 1),))
        assert tree.frequency(((0, 1), (1, 2))) == 2
        assert tree.frequency(((0, 1),)) == 3
        assert tree.frequency(((1, 2),)) == 2

    def test_empty_hit_ignored(self):
        tree = MaxSubpatternTree(((0, 1),))
        tree.insert(())
        assert tree.frequency(((0, 1),)) == 0

    def test_canonical_path_materialisation_is_linear(self):
        # Inserting a hit missing k of the root's items creates at most
        # k intermediate nodes, never the 2^k subset lattice.
        root = tuple((l, 0) for l in range(12))
        tree = MaxSubpatternTree(root)
        tree.insert(root[:2])  # missing 10 items
        assert tree.node_count <= 1 + 10 + 1

    def test_hit_patterns_listing(self):
        tree = MaxSubpatternTree(((0, 1), (2, 0)))
        tree.insert(((0, 1),))
        tree.insert(((0, 1),))
        hits = dict(tree.hit_patterns())
        assert hits == {((0, 1),): 2}


class TestMiner:
    def test_frequent_items_counts(self):
        series = SymbolSequence.from_string("abcabcabd")
        miner = MaxSubpatternMiner(min_confidence=0.6)
        f1 = miner.frequent_items(series, 3)
        a, b = series.alphabet.code("a"), series.alphabet.code("b")
        assert f1[(0, a)] == 3
        assert f1[(1, b)] == 3
        c = series.alphabet.code("c")
        assert (2, c) in f1  # 2 of 3 segments

    def test_zero_segments(self):
        series = SymbolSequence.from_string("ab")
        assert MaxSubpatternMiner().mine(series, 5) == []

    def test_perfectly_periodic(self):
        series = SymbolSequence.from_string("abcabcabcabc")
        patterns = MaxSubpatternMiner(min_confidence=0.9).mine(series, 3)
        top = [p for p in patterns if p.arity == 3]
        assert len(top) == 1 and top[0].support == pytest.approx(1.0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            MaxSubpatternMiner(min_confidence=1.5)

    def test_rejects_bad_period(self):
        series = SymbolSequence.from_string("abab")
        with pytest.raises(ValueError):
            MaxSubpatternMiner().frequent_items(series, 0)

    def test_max_arity(self):
        series = SymbolSequence.from_string("abcabcabc")
        patterns = MaxSubpatternMiner(min_confidence=0.9, max_arity=2).mine(series, 3)
        assert max(p.arity for p in patterns) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        series=series_strategy(min_size=8, max_size=80, max_sigma=3),
        period=st.integers(2, 8),
        confidence=st.sampled_from([0.3, 0.5, 0.8]),
        max_arity=st.none() | st.integers(1, 3),
    )
    def test_equals_apriori_miner(self, series, period, confidence, max_arity):
        """The published two-scan algorithm and the plain Apriori segment
        miner are definitionally identical — pin both, in order and with
        supports, and every count against the tree's own."""
        miner = MaxSubpatternMiner(confidence, max_arity)
        via_tree = [(p.items, p.support) for p in miner.mine(series, period)]
        via_apriori = [
            (p.items, p.support)
            for p in HanPartialMiner(confidence, max_arity).mine(series, period)
        ]
        assert via_tree == via_apriori
        segments = series.length // period
        if segments:
            tree = miner.build_tree(series, period)
            for items, support in via_tree:
                assert tree.frequency(items) == round(support * segments)

    def test_refuses_a_level_over_the_join_budget(self):
        # 2 000 positions, each frequent: arity 2 alone needs
        # 2000 * 1999 / 2 = 1 999 000 joins.
        series = SymbolSequence.from_string("a" * 6000)
        with pytest.raises(ValueError, match="max_arity") as refused:
            MaxSubpatternMiner(0.5).mine(series, 2000)
        assert "1,999,000 joins" in str(refused.value)
        assert "--periods" not in str(refused.value)
        assert len(MaxSubpatternMiner(0.5, max_arity=1).mine(series, 2000)) == 2000

    def test_tree_stays_small_on_real_workload(self, rng):
        from repro.data import PowerConsumptionSimulator

        series = PowerConsumptionSimulator(days=364).series(rng)
        miner = MaxSubpatternMiner(min_confidence=0.4)
        tree = miner.build_tree(series, 7)
        # 52 segments can create at most 52 counted nodes plus their
        # canonical chains.
        assert tree.node_count < 52 * 8


@pytest.mark.parametrize("miner", [HanPartialMiner, MaxSubpatternMiner])
class TestMaxArityOption:
    @pytest.mark.parametrize("max_arity", [0, -1])
    def test_rejects_non_positive(self, miner, max_arity):
        with pytest.raises(ValueError, match="max_arity must be >= 1"):
            miner(max_arity=max_arity)

    def test_rejects_fractional(self, miner):
        with pytest.raises(TypeError, match="max_arity must be an integer"):
            miner(max_arity=1.5)

    @pytest.mark.parametrize("max_arity", [None, 1, np.int64(2)])
    def test_accepts_none_and_whole_numbers(self, miner, max_arity):
        series = SymbolSequence.from_string("abcabcabc")
        patterns = miner(min_confidence=0.9, max_arity=max_arity).mine(series, 3)
        assert max(p.arity for p in patterns) == (max_arity or 3)
