"""Tests for repro.convolution.direct."""

import numpy as np
import pytest

from repro.convolution import correlate_direct, weighted_convolve_direct


class TestWeightedConvolution:
    def test_definition_small(self):
        # (x (*) y)_i = sum_j 2^j x_j y_{i-j}
        out = weighted_convolve_direct([1, 1], [1, 1])
        # i=0: 2^0*1*1 = 1 ; i=1: 2^0*1*1 + 2^1*1*1 = 3
        assert out == [1, 3]

    def test_weights_separate_matches(self):
        # Only x_2 y_0 contributes at i=2 -> exactly 2^2.
        out = weighted_convolve_direct([0, 0, 1], [1, 0, 0])
        assert out == [0, 0, 4]

    def test_exactness_with_large_indices(self):
        n = 70  # 2^69 overflows doubles; ints must stay exact
        x = [0] * n
        y = [0] * n
        x[n - 1] = 1
        y[0] = 1
        out = weighted_convolve_direct(x, y)
        assert out[n - 1] == 2 ** (n - 1)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            weighted_convolve_direct([1], [1, 0])


class TestCorrelation:
    def test_autocorrelation_counts_matches(self):
        # x = 1,0,1,0,1: lag 2 pairs -> positions (0,2),(2,4)
        x = [1.0, 0.0, 1.0, 0.0, 1.0]
        corr = correlate_direct(x, x)
        assert corr.tolist() == [3.0, 0.0, 2.0, 0.0, 1.0]

    def test_lag_zero_is_dot_product(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=9)
        assert correlate_direct(x, x)[0] == pytest.approx(float(x @ x))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            correlate_direct([1.0], [1.0, 2.0])
