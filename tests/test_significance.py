"""Tests for repro.analysis.significance."""

import timeit

import numpy as np
import pytest

from repro.analysis import (
    binomial_tail,
    score_periodicities,
    significant_periods,
)
from repro.core import SpectralMiner
from repro.data import generate_periodic, generate_random


class TestBinomialTail:
    def test_degenerate_cases(self):
        assert binomial_tail(0, 10, 0.3) == 1.0
        assert binomial_tail(11, 10, 0.3) == 0.0
        assert binomial_tail(3, 10, 0.0) == 0.0
        assert binomial_tail(3, 10, 1.0) == 1.0

    def test_exact_small_case(self):
        # P[X >= 2], X ~ Bin(3, 0.5) = C(3,2)/8 + C(3,3)/8 = 0.5
        assert binomial_tail(2, 3, 0.5) == pytest.approx(0.5)

    def test_full_mass(self):
        # P[X >= 1] = 1 - (1 - p)^n
        assert binomial_tail(1, 5, 0.2) == pytest.approx(1 - 0.8**5)

    def test_monotone_in_successes(self):
        values = [binomial_tail(k, 20, 0.3) for k in range(21)]
        assert values == sorted(values, reverse=True)

    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for _ in range(25):
            trials = int(rng.integers(1, 200))
            successes = int(rng.integers(0, trials + 1))
            p = float(rng.uniform(0.01, 0.99))
            expected = float(stats.binom.sf(successes - 1, trials, p))
            assert binomial_tail(successes, trials, p) == pytest.approx(
                expected, rel=1e-9, abs=1e-300
            )

    @pytest.mark.parametrize(
        "successes, trials, probability",
        [(2, 3000, 0.5), (1, 10**6, 0.5), (4500, 6250, 1 / 64)],
        ids=["below-mean-underflow", "one-of-a-million", "far-above-mean-underflow"],
    )
    def test_underflowing_first_term_against_scipy(
        self, successes, trials, probability
    ):
        """The tail's first term underflows a double in each case: below
        the mean the tail is ~1, far above it ~0.  Each call stops after
        a few terms (a loop over the million trials takes ~150 ms)."""
        stats = pytest.importorskip("scipy.stats")
        expected = float(stats.binom.sf(successes - 1, trials, probability))
        assert binomial_tail(successes, trials, probability) == pytest.approx(
            expected, rel=1e-9, abs=1e-300
        )
        seconds = timeit.timeit(
            lambda: binomial_tail(successes, trials, probability), number=10
        )
        assert seconds < 0.05

    def test_large_trials_fast_and_finite(self):
        value = binomial_tail(900, 100_000, 0.01)
        assert 0.0 <= value <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail(1, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(1, 10, 1.5)


class TestScoring:
    def test_structural_period_is_significant(self, rng):
        series = generate_periodic(2000, 25, 10, rng=rng)
        table = SpectralMiner(max_period=50).periodicity_table(series)
        scored = score_periodicities(series, table, psi=0.9)
        by_period = {}
        for s in scored:
            by_period.setdefault(s.periodicity.period, min(
                by_period.get(s.periodicity.period, 1.0), s.p_value
            ))
        assert by_period[25] < 1e-10

    def test_trivial_small_projection_not_significant(self, rng):
        # Near n/2 the projection has 1-2 pairs; even F2 = pairs is weak
        # evidence for a frequent symbol.
        series = generate_random(60, 2, rng=rng)
        table = SpectralMiner().periodicity_table(series)
        scored = score_periodicities(series, table, psi=1.0)
        weak = [s for s in scored if s.periodicity.pairs <= 2]
        assert weak and all(s.p_value > 1e-4 for s in weak)

    def test_sorted_by_p_value(self, rng):
        series = generate_periodic(500, 10, 5, rng=rng)
        table = SpectralMiner(max_period=30).periodicity_table(series)
        scored = score_periodicities(series, table, psi=0.5)
        p_values = [s.p_value for s in scored]
        assert p_values == sorted(p_values)

    def test_empty_series(self):
        from repro.core import Alphabet, PeriodicityTable, SymbolSequence

        series = SymbolSequence.from_codes([], Alphabet("ab"))
        table = PeriodicityTable(0, series.alphabet, {})
        assert score_periodicities(series, table, 0.5) == []


class TestSignificantPeriods:
    def test_filters_noise_keeps_structure(self, rng):
        series = generate_periodic(3000, 25, 10, rng=rng)
        table = SpectralMiner(max_period=100).periodicity_table(series)
        raw = table.candidate_periods(0.9)
        significant = significant_periods(series, table, psi=0.9)
        assert 25 in significant
        assert set(significant) <= set(raw)

    def test_random_series_mostly_insignificant(self, rng):
        series = generate_random(500, 4, rng=rng)
        table = SpectralMiner().periodicity_table(series)
        raw = table.candidate_periods(1.0)
        significant = significant_periods(series, table, psi=1.0)
        assert len(significant) < max(len(raw) // 4, 1)

    def test_rejects_bad_alpha(self, rng):
        series = generate_periodic(100, 5, 3, rng=rng)
        table = SpectralMiner().periodicity_table(series)
        with pytest.raises(ValueError):
            significant_periods(series, table, 0.5, alpha=0.0)
