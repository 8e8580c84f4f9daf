"""Tests for repro.core.segment."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    SpectralMiner,
    SymbolSequence,
    segment_supports,
)
from repro.data import generate_periodic

from conftest import series_strategy


class TestSegmentSupports:
    def test_matches_definition(self, rng):
        codes = rng.integers(0, 3, size=120)
        series = SymbolSequence.from_codes(codes, __import__("repro").Alphabet("abc"))
        supports = segment_supports(series, max_period=30)
        for p in range(1, 31):
            expected = np.count_nonzero(codes[:-p] == codes[p:]) / (120 - p)
            assert supports[p] == pytest.approx(expected)

    def test_lag_zero_is_one(self, rng):
        series = generate_periodic(50, 5, 3, rng=rng)
        assert segment_supports(series)[0] == 1.0

    def test_perfect_period_scores_one(self, rng):
        series = generate_periodic(200, 8, 4, rng=rng)
        supports = segment_supports(series, max_period=40)
        assert supports[8] == pytest.approx(1.0)
        assert supports[16] == pytest.approx(1.0)

    def test_tiny_series(self):
        series = SymbolSequence.from_string("a")
        assert segment_supports(series).tolist() == [1.0]

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(min_size=4, max_size=50))
    def test_equals_sum_of_symbol_match_counts(self, series):
        supports = segment_supports(series)
        counts = SpectralMiner().match_counts(series)
        for p in range(1, supports.size):
            total = counts[:, p].sum()
            assert supports[p] == pytest.approx(total / (series.length - p))

    def test_symbol_periodicity_implies_segment_evidence(self, rng):
        """Any symbol periodicity contributes to segment support."""
        series = generate_periodic(200, 10, 4, rng=rng)
        table = SpectralMiner(max_period=30).periodicity_table(series)
        supports = segment_supports(series, max_period=30)
        for hit in table.periodicities(0.9):
            if hit.period <= 30:
                assert supports[hit.period] > 0
