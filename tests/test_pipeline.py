"""Tests for repro.pipeline and repro.data.traces."""

import numpy as np
import pytest

from repro import PeriodicityPipeline
from repro.data import SeasonalTrace, ThresholdDiscretizer


class TestSeasonalTrace:
    def test_length_and_determinism(self):
        trace = SeasonalTrace(length=300)
        a = trace.values(np.random.default_rng(1))
        b = trace.values(np.random.default_rng(1))
        assert a.size == 300
        np.testing.assert_array_equal(a, b)

    def test_seasonal_period_lcm(self):
        trace = SeasonalTrace(profiles=((1.0,) * 6, (0.0,) * 4))
        assert trace.seasonal_period == 12

    def test_trend_moves_the_mean(self):
        flat = SeasonalTrace(length=500, trend=0.0, noise_sd=0.0)
        drifting = SeasonalTrace(length=500, trend=0.05, noise_sd=0.0)
        assert drifting.values().mean() > flat.values().mean()

    def test_regime_shift(self):
        trace = SeasonalTrace(
            length=200, profiles=((0.0,),), noise_sd=0.0,
            regime_shift_at=100, regime_shift_size=50.0,
        )
        values = trace.values()
        assert values[150] - values[50] == pytest.approx(50.0)

    def test_spikes_appear(self):
        trace = SeasonalTrace(length=2000, noise_sd=0.0, spike_rate=0.05,
                              spike_size=100.0)
        values = trace.values(np.random.default_rng(2))
        assert np.count_nonzero(np.abs(values) > 50) > 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SeasonalTrace(length=0)
        with pytest.raises(ValueError):
            SeasonalTrace(profiles=())
        with pytest.raises(ValueError):
            SeasonalTrace(profiles=((),))
        with pytest.raises(ValueError):
            SeasonalTrace(noise_sd=-1.0)
        with pytest.raises(ValueError):
            SeasonalTrace(spike_rate=2.0)
        with pytest.raises(ValueError):
            SeasonalTrace(length=10, regime_shift_at=20)


class TestPipeline:
    def test_end_to_end_on_seasonal_trace(self, rng):
        trace = SeasonalTrace(length=1600, noise_sd=0.3)
        values = trace.values(rng)
        report = PeriodicityPipeline(psi=0.6, max_period=40).run_values(values)
        assert report.base_periods
        assert report.base_periods[0] == trace.seasonal_period
        assert report.patterns_for_base()
        assert trace.seasonal_period in report.significant

    def test_aperiodic_trace_yields_no_strong_bases(self, rng):
        values = rng.normal(size=1500)
        report = PeriodicityPipeline(psi=0.6, max_period=40).run_values(values)
        # i.i.d. noise: nothing should clear psi=0.6 with real evidence
        # except short-denominator flukes, which significance filters.
        assert not report.significant

    def test_custom_discretizer(self, rng):
        trace = SeasonalTrace(length=800, level=0.0, noise_sd=0.2)
        pipeline = PeriodicityPipeline(
            discretizer=ThresholdDiscretizer([1.0, 3.0, 6.0, 8.0]),
            psi=0.6,
            max_period=30,
        )
        report = pipeline.run_values(trace.values(rng))
        assert report.series.sigma == 5
        assert report.base_periods[0] == trace.seasonal_period

    def test_anomaly_hookup(self, rng):
        trace = SeasonalTrace(length=1600, noise_sd=0.2)
        values = trace.values(rng)
        values[800:808] += 40.0  # one corrupted period
        report = PeriodicityPipeline(
            psi=0.7, max_period=20, anomaly_threshold=0.6
        ).run_values(values)
        segment = 800 // trace.seasonal_period
        assert any(a.segment == segment for a in report.anomalies)

    def test_render_summarises(self, rng):
        trace = SeasonalTrace(length=800, noise_sd=0.3)
        report = PeriodicityPipeline(psi=0.6, max_period=30).run_values(
            trace.values(rng)
        )
        text = report.render()
        assert "base period" in text and "support" in text

    def test_render_on_empty_result(self, rng):
        values = rng.normal(size=400)
        report = PeriodicityPipeline(psi=0.98, max_period=10).run_values(values)
        # Either no families at all or a no-structure note; render must
        # not crash either way.
        assert isinstance(report.render(), str)

    def test_rejects_bad_psi(self):
        with pytest.raises(ValueError):
            PeriodicityPipeline(psi=0.0)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"max_arity": 0}, "max_arity"),
            ({"max_arity": -3}, "max_arity"),
            ({"workers": 0}, "workers"),
        ],
    )
    def test_rejects_bad_options_at_construction(self, options, message):
        with pytest.raises(ValueError, match=message):
            PeriodicityPipeline(psi=0.5, **options)

    def test_single_mining_pass_spectral(self, rng, monkeypatch):
        """Stage 2 reuses the stage-1 table: exactly one mining pass."""
        from repro.core.spectral_miner import SpectralMiner

        calls = []
        original = SpectralMiner.periodicity_table
        monkeypatch.setattr(
            SpectralMiner,
            "periodicity_table",
            lambda self, series: calls.append(1) or original(self, series),
        )
        trace = SeasonalTrace(length=800, noise_sd=0.3)
        report = PeriodicityPipeline(psi=0.6, max_period=30).run_values(
            trace.values(rng)
        )
        assert report.base_periods  # the run found real structure ...
        assert len(calls) == 1  # ... from a single pass over the series

