"""Tests for repro.core.pattern_text."""

import numpy as np
import pytest

from repro.core import (
    Alphabet,
    PeriodicPattern,
    SymbolSequence,
    parse_pattern,
    segment_matches,
)


class TestParsePattern:
    def test_paper_style_string(self):
        pattern = parse_pattern("ab*", Alphabet("abc"))
        assert pattern.period == 3
        assert pattern.items == ((0, 0), (1, 1))

    def test_round_trip_with_to_string(self):
        alphabet = Alphabet("abc")
        original = PeriodicPattern.from_items(5, {1: 2, 4: 0})
        assert parse_pattern(original.to_string(alphabet), alphabet) == original

    def test_all_dont_care(self):
        pattern = parse_pattern("***", Alphabet("ab"))
        assert pattern.arity == 0

    def test_support_annotation(self):
        pattern = parse_pattern("a*", Alphabet("ab"), support=0.5)
        assert pattern.support == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_pattern("", Alphabet("ab"))

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_pattern("az", Alphabet("ab"))


class TestSegmentMatches:
    def test_full_period_pattern(self):
        series = SymbolSequence.from_string("abcabcabx")
        pattern = parse_pattern("abc", series.alphabet)
        assert segment_matches(series, pattern).tolist() == [True, True, False]

    def test_partial_pattern(self):
        series = SymbolSequence.from_string("axbxaybyazbz")
        pattern = parse_pattern("a*b*", series.alphabet)
        assert segment_matches(series, pattern).tolist() == [True, True, True]

    def test_trailing_partial_segment_excluded(self):
        series = SymbolSequence.from_string("ababa")
        pattern = parse_pattern("ab", series.alphabet)
        assert segment_matches(series, pattern).size == 2

    def test_agrees_with_matches_segment(self, rng):
        codes = rng.integers(0, 3, size=60)
        series = SymbolSequence.from_codes(codes, Alphabet.of_size(3))
        pattern = PeriodicPattern.from_items(5, {0: 1, 3: 2})
        vector = segment_matches(series, pattern)
        for m in range(12):
            segment = tuple(int(c) for c in codes[m * 5 : (m + 1) * 5])
            assert vector[m] == pattern.matches_segment(segment)
