"""Tests for repro.baselines (oracle, sketch, trends, Ma-Hellerstein,
Han partial miner)."""

import numpy as np
import pytest

from repro.baselines import (
    HanPartialMiner,
    MaHellerstein,
    PeriodicTrends,
    SelfDistanceSketch,
    brute_force_table,
    chi_squared_threshold,
    exact_self_distances,
)
from repro.core import SymbolSequence
from repro.data import apply_noise, generate_periodic

from conftest import random_series


class TestBruteForce:
    def test_table_supports_paper_example(self, paper_series):
        table = brute_force_table(paper_series)
        assert table.support(3, 0, 0) == pytest.approx(2 / 3)
        assert table.support(3, 1, 1) == pytest.approx(1.0)


class TestSelfDistances:
    def test_exact_definition(self, rng):
        series = random_series(rng, 80, 4)
        distances = exact_self_distances(series, max_shift=20)
        codes = series.codes
        for p in range(1, 21):
            expected = int(np.count_nonzero(codes[:-p] != codes[p:]))
            assert distances[p] == pytest.approx(expected)

    def test_zero_at_lag_zero(self, rng):
        series = random_series(rng, 30, 3)
        assert exact_self_distances(series)[0] == 0.0

    def test_periodic_series_has_zero_distance_at_period(self):
        series = generate_periodic(100, 10, 4, rng=np.random.default_rng(0))
        distances = exact_self_distances(series, max_shift=30)
        assert distances[10] == 0.0
        assert distances[20] == 0.0
        assert distances[7] > 0.0

    def test_sketch_estimates_within_tolerance(self, rng):
        series = random_series(rng, 400, 4)
        exact = exact_self_distances(series, max_shift=50)
        sketch = SelfDistanceSketch(dimensions=256, rng=rng).estimate(
            series, max_shift=50
        )
        # Relative error ~ sqrt(2/256) ~ 9%; allow generous headroom.
        scale = exact[1:].mean()
        assert np.abs(sketch[1:] - exact[1:]).mean() < 0.35 * scale

    def test_sketch_unbiasedness_on_average(self, rng):
        series = random_series(rng, 150, 3)
        exact = exact_self_distances(series, max_shift=10)
        estimates = np.zeros(11)
        for seed in range(12):
            sketch = SelfDistanceSketch(
                dimensions=32, rng=np.random.default_rng(seed)
            )
            estimates += sketch.estimate(series, max_shift=10)
        estimates /= 12
        assert np.abs(estimates[1:] - exact[1:]).mean() < 0.15 * exact[1:].mean()

    @pytest.mark.parametrize("max_shift", [0, -1])
    def test_rejects_non_positive_max_shift(self, rng, max_shift):
        series = random_series(rng, 30, 3)
        with pytest.raises(ValueError, match="max_shift must be >= 1"):
            exact_self_distances(series, max_shift=max_shift)
        with pytest.raises(ValueError, match="max_shift must be >= 1"):
            SelfDistanceSketch(dimensions=2, rng=rng).estimate(
                series, max_shift=max_shift
            )

    def test_sketch_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SelfDistanceSketch(dimensions=0)


class TestPeriodicTrends:
    def test_exact_ranks_true_period_first_on_clean_data(self):
        series = generate_periodic(300, 12, 5, rng=np.random.default_rng(1))
        result = PeriodicTrends(method="exact").analyse(series)
        # All multiples of 12 have distance zero; the top rank is one of them.
        assert result.top % 12 == 0
        assert result.confidence(result.top) == pytest.approx(1.0)

    def test_large_period_bias_on_noisy_data(self):
        rng = np.random.default_rng(2)
        series = apply_noise(
            generate_periodic(4000, 25, 8, rng=rng), 0.2, "R", rng
        )
        result = PeriodicTrends(method="exact").analyse(series)
        # The paper's Fig. 4 finding: confidence rises with the multiple.
        small = result.confidence(25)
        large = result.confidence(25 * 60)
        assert large > small

    def test_normalization_levels_the_multiples(self):
        rng = np.random.default_rng(3)
        series = apply_noise(
            generate_periodic(4000, 25, 8, rng=rng), 0.2, "R", rng
        )
        raw = PeriodicTrends(method="exact").analyse(series)
        n = series.length
        # Raw distances shrink systematically with the shift; per-position
        # mismatch rates do not — that is what normalize=True ranks by.
        assert raw.distances[25 * 60] < 0.85 * raw.distances[25]
        rate_base = raw.distances[25] / (n - 25)
        rate_far = raw.distances[25 * 60] / (n - 25 * 60)
        assert abs(rate_base - rate_far) < 0.1 * rate_base

    def test_rank_and_confidence_consistency(self, rng):
        series = random_series(rng, 100, 3)
        result = PeriodicTrends(method="exact").analyse(series)
        total = len(result.ranked_periods)
        assert result.confidence(result.ranked_periods[0]) == pytest.approx(1.0)
        assert result.confidence(result.ranked_periods[-1]) == pytest.approx(1 / total)

    def test_sketch_method_finds_strong_period(self):
        series = generate_periodic(1000, 30, 6, rng=np.random.default_rng(4))
        result = PeriodicTrends(
            method="sketch", dimensions=64, rng=np.random.default_rng(5)
        ).analyse(series)
        assert result.confidence(30) > 0.9

    def test_unknown_period_raises(self, rng):
        series = random_series(rng, 40, 3)
        result = PeriodicTrends(method="exact").analyse(series)
        with pytest.raises(ValueError):
            result.rank(10_000)

    def test_rejects_tiny_series(self):
        with pytest.raises(ValueError):
            PeriodicTrends().analyse(SymbolSequence.from_string("a"))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            PeriodicTrends(method="psychic")


class TestMaHellerstein:
    def test_chi_squared_table(self):
        assert chi_squared_threshold(0.95) == pytest.approx(3.8415)
        with pytest.raises(ValueError):
            chi_squared_threshold(0.5)

    def test_detects_planted_period(self):
        # Symbol 's' every 10 slots in mostly-unique background.
        rng = np.random.default_rng(6)
        codes = rng.integers(1, 5, size=400)
        codes[::10] = 0
        series = SymbolSequence.from_codes(codes, __import__("repro").Alphabet("sabcd"))
        periods = {c.period for c in MaHellerstein().candidates_for_symbol(series, 0)}
        assert 10 in periods

    def test_misses_period_five_paper_example(self):
        """The paper's Sect. 1.1 criticism: adjacent gaps never contain 5."""
        symbols = ["x"] * 12
        for position in (0, 4, 5, 7, 10):
            symbols[position] = "s"
        series = SymbolSequence.from_symbols(symbols)
        detector = MaHellerstein()
        s = series.alphabet.code("s")
        assert detector.adjacent_gaps(series, s).tolist() == [4, 1, 2, 3]
        assert 5 not in {c.period for c in detector.candidates(series)}

    def test_no_occurrences_no_candidates(self):
        series = SymbolSequence.from_string("aaaa", __import__("repro").Alphabet("ab"))
        assert MaHellerstein().candidates_for_symbol(series, 1) == []

    def test_random_data_rarely_flags(self, rng):
        series = random_series(rng, 500, 5)
        candidates = MaHellerstein(confidence=0.99, min_count=3).candidates(series)
        # A handful of false positives are statistically expected, but a
        # random series must not light up across the board.
        assert len(candidates) < 25

    def test_candidate_periods_sorted_unique(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(1, 4, size=300)
        codes[::7] = 0
        series = SymbolSequence.from_codes(codes, __import__("repro").Alphabet("sabc"))
        periods = MaHellerstein().candidate_periods(series)
        assert periods == sorted(set(periods))

    def test_rejects_bad_min_count(self):
        with pytest.raises(ValueError):
            MaHellerstein(min_count=0)


class TestHanPartialMiner:
    def test_segments_shape(self, paper_series):
        segments = HanPartialMiner().segments(paper_series, 3)
        assert segments.shape == (3, 3)

    def test_mine_perfectly_periodic(self):
        series = SymbolSequence.from_string("abcabcabcabc")
        patterns = HanPartialMiner(min_confidence=0.9).mine(series, 3)
        full = [p for p in patterns if p.arity == 3]
        assert len(full) == 1
        assert full[0].support == pytest.approx(1.0)

    def test_confidence_counts_segments_not_pairs(self):
        # 'a' appears at position 0 of 2 out of 3 full segments.
        series = SymbolSequence.from_string("axbxaxbxcxbx")
        patterns = HanPartialMiner(min_confidence=0.5).mine(series, 4)
        singles = {(p.items, round(p.support, 3)) for p in patterns if p.arity == 1}
        a = series.alphabet.code("a")
        assert (((0, a),), round(2 / 3, 3)) in singles

    def test_max_arity(self):
        series = SymbolSequence.from_string("abcabcabc")
        patterns = HanPartialMiner(min_confidence=0.9, max_arity=1).mine(series, 3)
        assert max(p.arity for p in patterns) == 1

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            HanPartialMiner(min_confidence=0.0)

    def test_rejects_bad_period(self, paper_series):
        with pytest.raises(ValueError):
            HanPartialMiner().segments(paper_series, 0)

    def test_apriori_soundness(self, rng):
        series = random_series(rng, 60, 3)
        miner = HanPartialMiner(min_confidence=0.4)
        segments = miner.segments(series, 5)
        for pattern in miner.mine(series, 5):
            matching = sum(
                1 for row in segments if pattern.matches_segment(tuple(row))
            )
            assert matching / segments.shape[0] == pytest.approx(pattern.support)
