"""Tests for repro.core.projection — pinned to the paper's examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SymbolSequence,
    f2,
    f2_projection,
    projection,
    projection_length,
    projection_pairs,
)
from repro.core.projection import f2_counts_for_period, f2_table_from_keys

from conftest import series_strategy


def f2_table(series, p):
    """The non-zero entries of one period's count vector as ``{(k, l): F2}``."""
    counts = f2_counts_for_period(series.codes, series.sigma, p)
    keys = np.flatnonzero(counts)
    return f2_table_from_keys(keys, counts[keys], p)


class TestProjection:
    def test_paper_example_p4_l1(self, paper_series):
        assert projection(paper_series, 4, 1).to_string() == "bbb"

    def test_paper_example_p3_l0(self, paper_series):
        assert projection(paper_series, 3, 0).to_string() == "aaab"

    def test_projection_period_one_is_identity(self, paper_series):
        assert projection(paper_series, 1, 0) == paper_series

    def test_rejects_bad_position(self, paper_series):
        with pytest.raises(ValueError):
            projection(paper_series, 3, 3)

    def test_rejects_bad_period(self, paper_series):
        with pytest.raises(ValueError):
            projection(paper_series, 0, 0)

    def test_length_formula_matches(self, paper_series):
        for p in range(1, 6):
            for l in range(p):
                assert (
                    projection(paper_series, p, l).length
                    == projection_length(paper_series.length, p, l)
                )

    def test_length_examples(self):
        # n=10: pi_{3,0} -> positions 0,3,6,9 (4 elements)
        assert projection_length(10, 3, 0) == 4
        # n=9: pi_{4,1} -> positions 1,5 (2 elements)
        assert projection_length(9, 4, 1) == 2

    def test_length_when_l_beyond_series(self):
        assert projection_length(3, 5, 4) == 0

    def test_pairs_is_length_minus_one(self):
        assert projection_pairs(10, 3, 0) == 3
        assert projection_pairs(10, 3, 1) == 2
        assert projection_pairs(2, 5, 1) == 0


class TestF2:
    def test_paper_example_abbaaabaa(self):
        series = SymbolSequence.from_string("abbaaabaa")
        assert f2(series.alphabet.code("a"), series.codes) == 3
        assert f2(series.alphabet.code("b"), series.codes) == 1

    def test_empty_and_singleton(self):
        assert f2(0, np.array([], dtype=np.int64)) == 0
        assert f2(0, np.array([0], dtype=np.int64)) == 0

    def test_all_same(self):
        assert f2(0, np.zeros(5, dtype=np.int64)) == 4

    def test_paper_support_example(self, paper_series):
        # F2(a, pi_{3,0}(T)) / 3 = 2/3
        a = paper_series.alphabet.code("a")
        proj = projection(paper_series, 3, 0)
        pairs = projection_pairs(paper_series.length, 3, 0)
        assert f2(a, proj.codes) / pairs == pytest.approx(2 / 3)

    def test_f2_projection_shortcut(self, paper_series):
        for p in range(1, 6):
            for l in range(p):
                for k in range(paper_series.sigma):
                    direct = f2(k, projection(paper_series, p, l).codes)
                    assert f2_projection(paper_series, k, p, l) == direct

    def test_f2_projection_rejects_bad_args(self, paper_series):
        with pytest.raises(ValueError):
            f2_projection(paper_series, 0, 0, 0)
        with pytest.raises(ValueError):
            f2_projection(paper_series, 0, 3, 5)


class TestF2Table:
    def test_matches_per_projection_counts(self, paper_series):
        table = f2_table(paper_series, 3)
        assert table == {(0, 0): 2, (1, 1): 2}

    def test_empty_when_period_too_large(self, paper_series):
        assert f2_table(paper_series, 10) == {}

    def test_rejects_bad_period(self, paper_series):
        with pytest.raises(ValueError):
            f2_table(paper_series, 0)

    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(), p=st.integers(1, 12))
    def test_table_agrees_with_direct_f2(self, series, p):
        table = f2_table(series, p)
        for l in range(min(p, series.length)):
            for k in range(series.sigma):
                expected = f2_projection(series, k, p, l)
                assert table.get((k, l), 0) == expected

    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(), p=st.integers(1, 12))
    def test_per_position_counts_sum_to_total_matches(self, series, p):
        """sum_l F2(s, pi_{p,l}) equals the plain shifted-match count."""
        table = f2_table(series, p)
        if p >= series.length:
            assert table == {}
            return
        codes = series.codes
        for k in range(series.sigma):
            total = int(np.count_nonzero((codes[:-p] == k) & (codes[p:] == k)))
            assert sum(v for (kk, _), v in table.items() if kk == k) == total

    def test_later_and_base_match_the_pair_loop(self, rng):
        """Pairs ``(j, j + p)`` with ``j + p >= later``, keyed ``(base + j) % p``."""
        for _ in range(300):
            codes = rng.integers(0, 3, size=int(rng.integers(0, 60)))
            p = int(rng.integers(1, 16))
            later = int(rng.integers(0, 70))
            base = int(rng.integers(0, 2**40))
            expected = np.zeros(3 * p, dtype=np.int64)
            for j in range(max(later - p, 0), codes.size - p):
                if codes[j] == codes[j + p]:
                    expected[codes[j] * p + (base + j) % p] += 1
            got = f2_counts_for_period(codes.astype(np.uint8), 3, p, later, base)
            assert np.array_equal(got, expected), (codes, p, later, base)
