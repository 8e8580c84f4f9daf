"""Tests for repro.core.patterns."""

import tracemalloc

import pytest

from repro.core import Alphabet, DONT_CARE, PeriodicPattern


@pytest.fixture
def abc():
    return Alphabet("abc")


class TestConstruction:
    def test_single(self):
        pattern = PeriodicPattern.single(3, 1, 2, support=0.5)
        assert pattern.slots == (None, 2, None)
        assert pattern.support == 0.5

    def test_single_rejects_bad_position(self):
        with pytest.raises(ValueError):
            PeriodicPattern.single(3, 3, 0)

    def test_from_items(self):
        pattern = PeriodicPattern.from_items(4, {0: 1, 3: 2})
        assert pattern.slots == (1, None, None, 2)

    def test_from_items_rejects_bad_position(self):
        with pytest.raises(ValueError):
            PeriodicPattern.from_items(2, {5: 0})

    def test_rejects_item_outside_period(self):
        with pytest.raises(ValueError, match="within 0..2"):
            PeriodicPattern(3, ((1, 0), (3, 0)))
        with pytest.raises(ValueError, match="within 0..2"):
            PeriodicPattern(3, ((-1, 0),))

    def test_rejects_unordered_or_repeated_positions(self):
        with pytest.raises(ValueError, match="must increase"):
            PeriodicPattern(4, ((2, 0), (1, 0)))
        with pytest.raises(ValueError, match="must increase"):
            PeriodicPattern(4, ((1, 0), (1, 1)))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicPattern(0, ())

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            PeriodicPattern(1, ((0, 0),), support=1.5)

    def test_single_costs_its_arity_not_its_period(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pattern = PeriodicPattern.single(10**6, 5, 0)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pattern.items == ((5, 0),)
        assert allocated < 1024


class TestStructure:
    def test_items_sorted_by_position(self):
        pattern = PeriodicPattern.from_items(5, {4: 0, 1: 2})
        assert pattern.items == ((1, 2), (4, 0))

    def test_arity(self):
        assert PeriodicPattern.from_items(5, {0: 1, 2: 1}).arity == 2
        assert PeriodicPattern.single(5, 0, 1).arity == 1

    def test_with_support_preserves_identity(self):
        pattern = PeriodicPattern.single(3, 0, 1)
        scored = pattern.with_support(0.8)
        assert scored == pattern  # support excluded from equality
        assert scored.support == 0.8

    def test_equality_ignores_support(self):
        a = PeriodicPattern.single(3, 0, 1, support=0.2)
        b = PeriodicPattern.single(3, 0, 1, support=0.9)
        assert a == b
        assert hash(a) == hash(b)

    def test_matches_segment(self):
        pattern = PeriodicPattern.from_items(3, {0: 0, 2: 1})
        assert pattern.matches_segment((0, 2, 1))
        assert not pattern.matches_segment((1, 2, 1))

    def test_matches_segment_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PeriodicPattern.single(3, 0, 0).matches_segment((0,))


class TestRendering:
    def test_to_string_paper_style(self, abc):
        # The paper's "ab*" pattern for T = abcabbabcb, p = 3.
        pattern = PeriodicPattern.from_items(3, {0: 0, 1: 1})
        assert pattern.to_string(abc) == "ab" + DONT_CARE

    def test_all_dont_care_renders_stars(self, abc):
        assert PeriodicPattern(3, ()).to_string(abc) == "***"

    def test_symbols_mapping(self, abc):
        pattern = PeriodicPattern.from_items(4, {1: 2})
        assert pattern.symbols(abc) == {1: "c"}

    def test_str_contains_period_and_support(self):
        text = str(PeriodicPattern.single(7, 2, 0, support=0.25))
        assert "p=7" in text and "0.250" in text
