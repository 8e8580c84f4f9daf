"""Tests for repro.core.candidates — Definition 3 and the Apriori search."""

import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConvolutionMiner,
    PeriodicPattern,
    SymbolSequence,
    cartesian_candidates,
    levelwise,
    mine,
    mine_patterns,
    pattern_support,
    segment_match_matrix,
    single_symbol_patterns,
)

from repro.core import candidates
from repro.core.candidates import SearchBudgetError
from repro.data import generate_periodic

from conftest import series_strategy


class TestSegmentMatrix:
    def test_paper_example(self, paper_series):
        # T = abcabbabcb, p = 3: rows compare segments (abc|abb|abc|b).
        matrix = segment_match_matrix(paper_series, 3)
        assert matrix.shape == (3, 3)
        a, b = paper_series.alphabet.code("a"), paper_series.alphabet.code("b")
        assert matrix[0].tolist() == [a, b, -1]   # abc vs abb
        assert matrix[1].tolist() == [a, b, -1]   # abb vs abc
        assert matrix[2].tolist() == [-1, -1, -1]  # abc vs b (only l=0 compares, a vs b)

    def test_row_count_formula(self, paper_series):
        for p in range(1, 8):
            rows = segment_match_matrix(paper_series, p).shape[0]
            assert rows == max(-(-paper_series.length // p) - 1, 0)

    def test_short_series(self):
        series = SymbolSequence.from_string("ab")
        assert segment_match_matrix(series, 5).shape == (0, 5)

    def test_rejects_bad_period(self, paper_series):
        with pytest.raises(ValueError):
            segment_match_matrix(paper_series, 0)

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(min_size=3, max_size=40), p=st.integers(1, 8))
    def test_matrix_entries_match_definition(self, series, p):
        matrix = segment_match_matrix(series, p)
        codes = series.codes
        for m in range(matrix.shape[0]):
            for l in range(p):
                j = m * p + l
                if j + p < series.length and codes[j] == codes[j + p]:
                    assert matrix[m, l] == codes[j]
                else:
                    assert matrix[m, l] == -1


class TestSingleSymbolPatterns:
    def test_paper_example(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        patterns = single_symbol_patterns(table, 2 / 3, period=3)
        rendered = {p.to_string(paper_series.alphabet) for p in patterns}
        assert rendered == {"a**", "*b*"}

    def test_supports_follow_definition_2(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        by_string = {
            p.to_string(paper_series.alphabet): p.support
            for p in single_symbol_patterns(table, 2 / 3, period=3)
        }
        assert by_string["a**"] == pytest.approx(2 / 3)
        assert by_string["*b*"] == pytest.approx(1.0)


class TestPatternSupport:
    def test_paper_ab_pattern(self, paper_series):
        matrix = segment_match_matrix(paper_series, 3)
        ab = PeriodicPattern.from_items(3, {0: 0, 1: 1})
        assert pattern_support(ab, matrix) == pytest.approx(2 / 3)

    def test_empty_matrix_zero_support(self):
        pattern = PeriodicPattern.single(3, 0, 0)
        assert pattern_support(pattern, np.empty((0, 3), dtype=np.int64)) == 0.0

    def test_dont_care_pattern_full_support(self, paper_series):
        matrix = segment_match_matrix(paper_series, 3)
        blank = PeriodicPattern(3, ())
        assert pattern_support(blank, matrix) == 1.0


class TestCartesianCandidates:
    def test_paper_candidate_set(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        hits = table.periodicities(2 / 3, period=3)
        rendered = {
            p.to_string(paper_series.alphabet)
            for p in cartesian_candidates(hits, 3)
        }
        # S_{3,0} = {a}, S_{3,1} = {b}, S_{3,2} = {} -> a**, *b*, ab*
        assert rendered == {"a**", "*b*", "ab*"}

    def test_cap_guards_explosion(self):
        from repro.core import SymbolPeriodicity

        hits = [
            SymbolPeriodicity(period=40, position=l, symbol_code=k, f2=5, pairs=5)
            for l in range(40)
            for k in range(2)
        ]
        with pytest.raises(ValueError, match="cap"):
            list(cartesian_candidates(hits, 40))


class TestMinePatterns:
    def test_paper_full_result(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        patterns = mine_patterns(paper_series, table, 2 / 3, periods=[3])
        by_string = {
            p.to_string(paper_series.alphabet): p.support for p in patterns
        }
        assert by_string == {
            "a**": pytest.approx(2 / 3),
            "*b*": pytest.approx(1.0),
            "ab*": pytest.approx(2 / 3),
        }

    def test_apriori_matches_cartesian_on_small_input(self, paper_series):
        """Level-wise search finds exactly the supported Cartesian candidates."""
        table = ConvolutionMiner().periodicity_table(paper_series)
        psi = 0.5
        matrix = segment_match_matrix(paper_series, 3)
        hits = table.periodicities(psi, period=3)
        exhaustive = {
            pattern.slots
            for pattern in cartesian_candidates(hits, 3)
            if pattern.arity >= 2 and pattern_support(pattern, matrix) >= psi
        }
        mined = {
            p.slots
            for p in mine_patterns(paper_series, table, psi, periods=[3])
            if p.arity >= 2
        }
        assert mined == exhaustive

    def test_max_arity_caps_depth(self):
        series = SymbolSequence.from_string("abcabcabcabcabc")
        table = ConvolutionMiner().periodicity_table(series)
        capped = mine_patterns(series, table, 0.9, periods=[3], max_arity=2)
        assert max(p.arity for p in capped) == 2
        uncapped = mine_patterns(series, table, 0.9, periods=[3])
        assert max(p.arity for p in uncapped) == 3

    def test_rejects_bad_threshold(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        with pytest.raises(ValueError):
            mine_patterns(paper_series, table, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(min_size=6, max_size=40, max_sigma=3))
    def test_anti_monotonicity(self, series):
        """Every mined pattern's support <= each of its single-symbol parts'
        aligned support (the Apriori property of the paper's footnote)."""
        table = ConvolutionMiner().periodicity_table(series)
        psi = 0.4
        patterns = mine_patterns(series, table, psi, max_arity=3)
        matrices = {}
        for pattern in patterns:
            if pattern.arity < 2:
                continue
            matrix = matrices.setdefault(
                pattern.period, segment_match_matrix(series, pattern.period)
            )
            for l, k in pattern.items:
                single = PeriodicPattern.single(pattern.period, l, k)
                assert pattern.support <= pattern_support(single, matrix) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(min_size=6, max_size=40, max_sigma=3))
    def test_all_returned_patterns_meet_threshold(self, series):
        table = ConvolutionMiner().periodicity_table(series)
        psi = 0.5
        for pattern in mine_patterns(series, table, psi, max_arity=3):
            assert pattern.support >= psi - 1e-12

    @staticmethod
    def _assert_search_order(patterns):
        assert patterns == sorted(
            patterns, key=lambda p: (p.period, p.arity, p.items)
        )

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(min_size=6, max_size=40, max_sigma=3))
    def test_patterns_come_in_period_arity_items_order(self, series):
        table = ConvolutionMiner().periodicity_table(series)
        self._assert_search_order(mine_patterns(series, table, 0.4, max_arity=3))
        # Also when the periods are given unsorted.
        periods = table.candidate_periods(0.4)[::-1]
        self._assert_search_order(
            mine_patterns(series, table, 0.4, periods=periods, max_arity=3)
        )

    def test_paper_example_order(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        patterns = mine_patterns(paper_series, table, 0.5)
        self._assert_search_order(patterns)
        alphabet = paper_series.alphabet
        period3 = [p.to_string(alphabet) for p in patterns if p.period == 3]
        assert period3 == ["a**", "*b*", "ab*"]

    def test_repeated_periods_are_mined_once(self, paper_series):
        table = ConvolutionMiner().periodicity_table(paper_series)
        patterns = mine_patterns(paper_series, table, 2 / 3, periods=[3, 3])
        assert len(patterns) == 3
        assert mine(paper_series, 2 / 3, periods=[3, 3]).patterns == tuple(patterns)


def _combinations_oracle(items, masks, min_count, max_arity):
    """Every itemset of 2 .. max_arity items (one per position) held in
    >= min_count rows, by size and then in ``combinations`` order."""
    top = len(items) if max_arity is None else max_arity
    found = []
    for size in range(2, top + 1):
        for chosen in combinations(range(len(items)), size):
            if len({items[i][0] for i in chosen}) < size:
                continue
            count = int(np.logical_and.reduce(masks[list(chosen)]).sum())
            if count >= min_count:
                found.append((tuple(items[i] for i in chosen), count))
    return found


@st.composite
def _item_masks(draw):
    items = sorted(
        draw(
            st.sets(
                st.tuples(st.integers(0, 5), st.integers(0, 2)),
                min_size=1,
                max_size=9,
            )
        )
    )
    rows = draw(st.integers(1, 12))
    bits = draw(
        st.lists(st.booleans(), min_size=len(items) * rows, max_size=len(items) * rows)
    )
    masks = np.array(bits, dtype=bool).reshape(len(items), rows)
    min_count = draw(st.integers(1, rows + 1))
    return items, masks, min_count


class TestLevelwise:
    @settings(max_examples=150, deadline=None)
    @given(case=_item_masks(), max_arity=st.none() | st.integers(1, 4))
    def test_equals_combinations_enumeration(self, case, max_arity):
        """Same itemsets, counts and order as a brute-force enumeration:
        level by level, each level in ``combinations`` order."""
        items, masks, min_count = case
        assert levelwise(items, masks, min_count, max_arity) == (
            _combinations_oracle(items, masks, min_count, max_arity)
        )

    def test_paper_example(self, paper_series):
        matrix = segment_match_matrix(paper_series, 3)
        a, b = paper_series.alphabet.code("a"), paper_series.alphabet.code("b")
        items = [(0, a), (1, b)]
        masks = np.array([matrix[:, 0] == a, matrix[:, 1] == b])
        assert levelwise(items, masks, 2) == [(((0, a), (1, b)), 2)]
        assert levelwise(items, masks, 3) == []

    def test_refuses_a_level_over_the_join_budget(self):
        # 2 000 items at distinct positions, all in every row: level 2
        # alone needs 2000 * 1999 / 2 = 1 999 000 joins.
        items = [(l, 0) for l in range(2000)]
        masks = np.ones((2000, 3), dtype=bool)
        with pytest.raises(ValueError, match="max_arity") as refused:
            levelwise(items, masks, 1)
        assert "periods" in str(refused.value)
        assert "1,999,000 joins" in str(refused.value)
        # Below the budget the same items are searched as usual.
        assert len(levelwise(items[:100], masks[:100], 1, max_arity=2)) == 4950

    def test_refuses_a_frontier_over_the_cell_budget(self, monkeypatch):
        # 6 items in all 10 rows: level 2 keeps 15 itemsets x 10 rows.
        items = [(l, 0) for l in range(6)]
        masks = np.ones((6, 10), dtype=bool)
        monkeypatch.setattr(candidates, "_FRONTIER_CELL_BUDGET", 149)
        with pytest.raises(SearchBudgetError, match="over 149 mask cells"):
            levelwise(items, masks, 1)
        monkeypatch.setattr(candidates, "_FRONTIER_CELL_BUDGET", 150)
        assert len(levelwise(items, masks, 1, max_arity=2)) == 15


class TestMinePatternBoundaries:
    def test_support_equal_to_psi_is_kept_when_psi_times_rows_rounds_up(self):
        # Period 2, 26 segments, 25 adjacent pairs: 'a' repeats at
        # position 0 in all 25, 'b' at position 1 in 14 of them.
        series = SymbolSequence.from_string("ab" * 15 + "ac" * 11)
        table = ConvolutionMiner().periodicity_table(series)
        psi = 0.56
        assert psi * 25 > 14 and 14 / 25 == psi  # 14.000000000000002
        rendered = {
            p.to_string(series.alphabet): p.support
            for p in mine_patterns(series, table, psi, periods=[2])
        }
        assert rendered == {"a*": 1.0, "*b": psi, "ab": psi}

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="caps RLIMIT_AS"
    )
    def test_long_inerrant_frontier_refuses_under_an_address_space_cap(self):
        """Each itemset's mask has a row per segment pair, so a level of
        a long inerrant series under the join budget could need GBs
        (134,596 itemsets x 6,249 rows = 802 MiB): with 2 GB of address
        space it refuses instead of raising MemoryError."""
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from repro import mine\n"
            "from repro.data import generate_periodic\n"
            "series = generate_periodic(150000, 24, 8)\n"
            "try:\n"
            "    mine(series, psi=0.6, periods=[24], max_period=48)\n"
            "except ValueError as error:\n"
            "    print(error)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert "mask cells" in done.stdout
        assert "max_arity" in done.stdout and "periods" in done.stdout

    def test_inerrant_multiples_refuse_instead_of_exhausting_memory(self):
        """Every slot of every multiple of 12 has support 1, so the
        frontier would hold every subset of up to 4 positions."""
        with pytest.raises(ValueError, match="max_arity") as refused:
            mine(generate_periodic(600, 12, 5), psi=0.6, max_arity=4)
        assert "periods" in str(refused.value)
