"""Tests for repro.pipeline."""

import numpy as np
import pytest

from repro import PeriodicityPipeline
from repro.data import ThresholdDiscretizer

#: One season of the numeric traces below: the pipeline should find
#: period 8.
PROFILE = np.array((0.0, 2.0, 5.0, 9.0, 7.0, 4.0, 1.0, 0.0))


def seasonal(rng, length, noise_sd, level=10.0):
    """``level`` plus ``PROFILE`` tiled over ``length`` samples (a multiple
    of 8) plus Gaussian noise."""
    return level + np.tile(PROFILE, length // PROFILE.size) + rng.normal(
        0.0, noise_sd, length
    )


class TestPipeline:
    def test_end_to_end_on_seasonal_trace(self, rng):
        values = 10.0 + np.tile(PROFILE, 200) + rng.normal(0.0, 0.3, 1600)
        report = PeriodicityPipeline(psi=0.6, max_period=40).run_values(values)
        assert report.base_periods
        assert report.base_periods[0] == 8
        assert report.patterns_for_base()
        assert 8 in report.significant

    def test_aperiodic_trace_yields_no_strong_bases(self, rng):
        values = rng.normal(size=1500)
        report = PeriodicityPipeline(psi=0.6, max_period=40).run_values(values)
        # i.i.d. noise: nothing should clear psi=0.6 with real evidence
        # except short-denominator flukes, which significance filters.
        assert not report.significant

    def test_custom_discretizer(self, rng):
        values = seasonal(rng, 800, noise_sd=0.2, level=0.0)
        pipeline = PeriodicityPipeline(
            discretizer=ThresholdDiscretizer([1.0, 3.0, 6.0, 8.0]),
            psi=0.6,
            max_period=30,
        )
        report = pipeline.run_values(values)
        assert report.series.sigma == 5
        assert report.base_periods[0] == 8

    def test_anomaly_hookup(self, rng):
        values = seasonal(rng, 1600, noise_sd=0.2)
        values[800:808] += 40.0  # one corrupted period
        report = PeriodicityPipeline(
            psi=0.7, max_period=20, anomaly_threshold=0.6
        ).run_values(values)
        segment = 800 // 8
        assert any(a.segment == segment for a in report.anomalies)

    def test_render_summarises(self, rng):
        report = PeriodicityPipeline(psi=0.6, max_period=30).run_values(
            seasonal(rng, 800, noise_sd=0.3)
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
        report = PeriodicityPipeline(psi=0.6, max_period=30).run_values(
            seasonal(rng, 800, noise_sd=0.3)
        )
        assert report.base_periods  # the run found real structure ...
        assert len(calls) == 1  # ... from a single pass over the series

