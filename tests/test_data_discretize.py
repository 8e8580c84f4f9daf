"""Tests for repro.data.discretize."""

import numpy as np
import pytest

from repro.data import (
    CIMEG_THRESHOLDS,
    EqualWidthDiscretizer,
    FIVE_LEVELS,
    GaussianDiscretizer,
    QuantileDiscretizer,
    ThresholdDiscretizer,
    WALMART_THRESHOLDS,
)


class TestThresholdDiscretizer:
    def test_paper_cimeg_levels(self):
        # "very low < 6000 Watts/Day, and each level has a 2000 Watts range"
        disc = ThresholdDiscretizer([6000, 8000, 10000, 12000])
        values = [1000, 5999, 6000, 7999, 9000, 11000, 12000, 20000]
        codes = disc.codes(values)
        assert codes.tolist() == [0, 0, 1, 1, 2, 3, 4, 4]

    def test_paper_walmart_levels(self):
        # "very low corresponds to zero transactions per hour, low < 200"
        disc = ThresholdDiscretizer([0.5, 200, 400, 600])
        codes = disc.codes([0, 1, 199, 200, 399, 400, 601])
        assert codes.tolist() == [0, 1, 1, 2, 2, 3, 4]

    @pytest.mark.parametrize("thresholds", [CIMEG_THRESHOLDS, WALMART_THRESHOLDS])
    def test_each_threshold_is_the_smallest_value_of_its_level(self, thresholds):
        # At a threshold the next level starts; the largest double below
        # it, and values a hair below, stay on the level under it.
        disc = ThresholdDiscretizer(thresholds)
        for level, threshold in enumerate(thresholds, start=1):
            below = [np.nextafter(threshold, -np.inf), threshold * (1 - 1e-13)]
            assert disc.codes([threshold]).tolist() == [level]
            assert disc.codes(below).tolist() == [level - 1, level - 1]

    def test_series_uses_level_alphabet(self):
        disc = ThresholdDiscretizer([10, 20, 30, 40])
        series = disc.discretize([5, 15, 45])
        assert series.to_string() == "abe"
        assert series.alphabet.symbols == FIVE_LEVELS

    def test_custom_level_count(self):
        disc = ThresholdDiscretizer([0.0], levels=2)
        assert disc.codes([-1.0, 1.0]).tolist() == [0, 1]

    def test_rejects_wrong_threshold_count(self):
        with pytest.raises(ValueError):
            ThresholdDiscretizer([1.0, 2.0], levels=5)

    def test_rejects_descending_thresholds(self):
        with pytest.raises(ValueError):
            ThresholdDiscretizer([3.0, 2.0, 4.0, 5.0])


class TestEqualWidth:
    def test_covers_range_evenly(self):
        disc = EqualWidthDiscretizer(levels=4)
        codes = disc.codes([0.0, 1.0, 2.0, 3.0, 4.0])
        assert codes.tolist() == [0, 1, 2, 3, 3]

    def test_constant_input_single_level(self):
        disc = EqualWidthDiscretizer(levels=3)
        codes = disc.codes([5.0, 5.0, 5.0])
        assert len(set(codes.tolist())) == 1


class TestQuantile:
    def test_balanced_bins(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        codes = QuantileDiscretizer(levels=5).codes(values)
        counts = np.bincount(codes, minlength=5)
        assert counts.min() > 0.15 * values.size


class TestGaussian:
    def test_balanced_bins_on_normal_data(self):
        rng = np.random.default_rng(1)
        values = rng.normal(10.0, 2.0, size=5000)
        codes = GaussianDiscretizer(levels=5).codes(values)
        counts = np.bincount(codes, minlength=5)
        assert counts.min() > 0.12 * values.size

    def test_constant_input(self):
        codes = GaussianDiscretizer(levels=3).codes([2.0, 2.0])
        assert set(codes.tolist()) <= {0, 1, 2}


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EqualWidthDiscretizer().codes([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            EqualWidthDiscretizer().codes(np.zeros((2, 2)))


class TestNormalPPF:
    """The Gaussian breakpoints of zero-mean, unit-variance values are
    the standard normal quantiles ``i / levels``."""

    UNIT = np.array([-1.0, 1.0])  # mean 0, population std 1

    def breakpoints(self, levels):
        return GaussianDiscretizer(levels=levels).breakpoints(self.UNIT)

    def test_median(self):
        assert self.breakpoints(2)[0] == pytest.approx(0.0, abs=1e-9)

    def test_known_quantiles(self):
        expected = {40: 1.9599640, 1000: 3.0902323}  # q = 0.025, 0.001
        for levels, z in expected.items():
            ends = self.breakpoints(levels)[[0, -1]]
            np.testing.assert_allclose(ends, [-z, z], atol=1e-6)

    def test_symmetry(self):
        breaks = self.breakpoints(50)
        np.testing.assert_allclose(breaks, -breaks[::-1], atol=1e-8)

    def test_outermost_breakpoints_are_finite(self):
        # The quantiles run over 1/levels .. (levels-1)/levels, never 0 or 1.
        breaks = self.breakpoints(10_000)
        assert np.isfinite(breaks).all()
        assert np.all(np.diff(breaks) > 0)

    @pytest.mark.parametrize("module", ["scipy"])
    def test_against_scipy_if_available(self, module):
        scipy_stats = pytest.importorskip("scipy.stats")
        levels = 1000
        q = np.arange(1, levels) / levels
        np.testing.assert_allclose(
            self.breakpoints(levels), scipy_stats.norm.ppf(q), atol=1e-12
        )
