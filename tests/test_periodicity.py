"""Tests for repro.core.periodicity."""

import numpy as np
import pytest

from repro.core import Alphabet, PeriodicityTable, SymbolPeriodicity


@pytest.fixture
def abc() -> Alphabet:
    return Alphabet("abc")


@pytest.fixture
def table(abc) -> PeriodicityTable:
    # Matches the evidence of T = "abcabbabcb" at p=3 (plus a p=4 entry).
    return PeriodicityTable(
        10,
        abc,
        {
            3: {(0, 0): 2, (1, 1): 2},
            4: {(1, 1): 2},
        },
    )


class TestSymbolPeriodicity:
    def test_support(self):
        hit = SymbolPeriodicity(period=3, position=0, symbol_code=0, f2=2, pairs=3)
        assert hit.support == pytest.approx(2 / 3)

    def test_support_zero_pairs(self):
        hit = SymbolPeriodicity(3, 0, 0, 0, 0)
        assert hit.support == 0.0

    def test_symbol_resolution(self, abc):
        hit = SymbolPeriodicity(3, 1, 1, 2, 2)
        assert hit.symbol(abc) == "b"

    def test_ordering_by_fields(self):
        a = SymbolPeriodicity(2, 0, 0, 1, 1)
        b = SymbolPeriodicity(3, 0, 0, 1, 1)
        assert a < b


class TestTableQueries:
    def test_f2_lookup(self, table):
        assert table.f2(3, 0, 0) == 2
        assert table.f2(3, 2, 0) == 0
        assert table.f2(7, 0, 0) == 0

    def test_support_uses_projection_pairs(self, table):
        # (a, p=3, l=0): pairs = ceil(10/3)-1 = 3
        assert table.support(3, 0, 0) == pytest.approx(2 / 3)
        # (b, p=3, l=1): pairs = ceil(9/3)-1 = 2
        assert table.support(3, 1, 1) == pytest.approx(1.0)

    def test_periods_listing(self, table):
        assert table.periods == [3, 4]

    def test_counts_for_returns_copy(self, table):
        counts = table.counts_for(3)
        counts[(9, 9)] = 1
        assert table.counts_for(3) == {(0, 0): 2, (1, 1): 2}

    def test_periodicities_threshold(self, table):
        hits = table.periodicities(0.9)
        assert [(h.period, h.symbol_code) for h in hits] == [(3, 1), (4, 1)]

    def test_periodicities_lower_threshold_nests(self, table):
        strict = set(
            (h.period, h.position, h.symbol_code) for h in table.periodicities(0.9)
        )
        loose = set(
            (h.period, h.position, h.symbol_code) for h in table.periodicities(0.5)
        )
        assert strict <= loose

    def test_periodicities_for_single_period(self, table):
        hits = table.periodicities(0.5, period=3)
        assert {h.symbol_code for h in hits} == {0, 1}

    def test_periodicities_min_pairs_filter(self, table):
        # (b, p=4, l=1) has pairs = ceil(9/4)-1 = 2: filtered at min_pairs=3.
        assert table.periodicities(0.5, period=4, min_pairs=3) == []
        assert len(table.periodicities(0.5, period=4, min_pairs=2)) == 1

    def test_periodicities_rejects_bad_threshold(self, table):
        with pytest.raises(ValueError):
            table.periodicities(0.0)
        with pytest.raises(ValueError):
            table.periodicities(1.5)

    def test_periodicities_rejects_bad_min_pairs(self, table):
        with pytest.raises(ValueError):
            table.periodicities(0.5, min_pairs=0)

    def test_candidate_periods(self, table):
        assert table.candidate_periods(0.9) == [3, 4]
        assert table.candidate_periods(0.67) == [3, 4]

    def test_confidence_is_best_support(self, table):
        assert table.confidence(3) == pytest.approx(1.0)
        assert table.confidence(7) == 0.0

    def test_zero_counts_dropped(self, abc):
        t = PeriodicityTable(10, abc, {3: {(0, 0): 0}})
        assert t.periods == []

    @pytest.mark.parametrize(
        ("counts", "message"),
        [
            (
                {3: {(5, 0): 2, (0, 7): 1}},
                r"\(code 5, position 0\) of period 3: the code",
            ),
            ({3: {(-1, 0): 1}}, r"\(code -1, position 0\) of period 3: the code"),
            ({3: {(0, 7): 1}}, r"\(code 0, position 7\) of period 3: the position"),
            ({3: {(0, -1): 1}}, r"position -1\) of period 3: the position"),
            ({0: {(0, 0): 1}}, r"of period 0: the period"),
            ({3: {(0, 0): -2}}, r"of period 3: F2 .* got -2"),
            ({3: {(0, 0): 2.5}}, r"of period 3: F2 .* got 2.5"),
            ({3: {(0, 0): 1, (1, 2): 2**64}}, r"\(code 1, position 2\).*F2"),
            # n = 10: position 0 of period 3 has 3 pairs, position 1 has 2.
            ({3: {(0, 0): 4}}, r"position 0\) of period 3: F2 .* in 0..3, got 4"),
            ({3: {(0, 0): 3, (1, 1): 3}}, r"position 1\) of period 3: F2 .* 0..2"),
        ],
    )
    def test_mapping_form_rejects_invalid_cells(self, counts, message):
        with pytest.raises(ValueError, match=message):
            PeriodicityTable(10, Alphabet("ab"), counts)

    def test_mapping_form_accepts_numpy_integers(self, abc):
        t = PeriodicityTable(10, abc, {np.int64(3): {(np.int32(1), 1): np.uint8(2)}})
        assert t.counts_for(3) == {(1, 1): 2}


class TestTableEquality:
    def test_equal_tables(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        assert a == b

    def test_zero_entries_ignored_in_equality(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}, 4: {}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        assert a == b

    def test_unequal_different_counts(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 1}})
        assert a != b

    def test_repr(self, table):
        assert "PeriodicityTable" in repr(table)
