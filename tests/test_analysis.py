"""Tests for repro.analysis."""

from functools import partial

import numpy as np
import pytest

from repro.analysis import (
    Timing,
    average_confidences,
    miner_confidences,
    time_callable,
    trends_confidences,
)
from repro.baselines import PeriodicTrends
from repro.data import generate_periodic


class TestMinerConfidences:
    def test_perfect_periods(self, rng):
        series = generate_periodic(400, 20, 6, rng=rng)
        confidences = miner_confidences(series, [20, 40, 60])
        assert all(c == pytest.approx(1.0) for c in confidences.values())

    def test_absent_period_zero(self, rng):
        series = generate_periodic(400, 20, 6, rng=rng)
        assert miner_confidences(series, [19])[19] < 0.5

    def test_requires_periods(self, rng):
        series = generate_periodic(50, 5, 3, rng=rng)
        with pytest.raises(ValueError):
            miner_confidences(series, [])


class TestTrendsConfidences:
    def test_top_candidate_high_confidence(self, rng):
        series = generate_periodic(600, 30, 6, rng=rng)
        confidences = trends_confidences(
            series, [30], trends=PeriodicTrends(method="exact")
        )
        assert confidences[30] > 0.9

    def test_requires_periods(self, rng):
        series = generate_periodic(50, 5, 3, rng=rng)
        with pytest.raises(ValueError):
            trends_confidences(series, [])


class TestAverageConfidences:
    def test_averaging_is_stable_for_deterministic_generator(self, rng):
        series = generate_periodic(300, 10, 5, rng=rng)
        averaged = average_confidences(
            lambda _: series, [10, 20], runs=3, rng=rng
        )
        single = miner_confidences(series, [10, 20])
        assert averaged == pytest.approx(single)

    def test_trends_scoring_function(self, rng):
        series = generate_periodic(300, 10, 5, rng=rng)
        trends = PeriodicTrends(method="exact")
        averaged = average_confidences(
            lambda _: series,
            [10],
            runs=2,
            rng=rng,
            score=partial(trends_confidences, trends=trends),
        )
        assert averaged == pytest.approx(
            trends_confidences(series, [10], trends=trends)
        )
        assert 0.0 < averaged[10] <= 1.0

    def test_rejects_bad_runs(self, rng):
        with pytest.raises(ValueError):
            average_confidences(lambda _: None, [5], runs=0, rng=rng)


class TestTiming:
    def test_reports_positive_times(self):
        timing = time_callable(lambda: sum(range(2000)), repeats=2)
        assert isinstance(timing, Timing)
        assert timing.best > 0
        assert timing.mean >= timing.best
        assert timing.repeats == 2

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
