"""Tests for repro.convolution.fft — the FFT correlation."""

import numpy as np
import pytest

from repro.convolution import correlate_direct, correlate_fft

N = 50


class TestCorrelateFFT:
    @pytest.mark.parametrize("max_lag", [0, 1, N // 2, N - 1])
    def test_matches_direct_correlation(self, max_lag):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=N).astype(float)
        out = correlate_fft(x, None, max_lag)
        assert out.shape == (max_lag + 1,)
        np.testing.assert_allclose(
            out, correlate_direct(x, x)[: max_lag + 1], atol=1e-7
        )

    @pytest.mark.parametrize("max_lag", [0, 1, N // 2, N - 1])
    def test_cross_correlation(self, max_lag):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=N).astype(float)
        y = rng.choice((-1.0, 1.0), size=N)
        np.testing.assert_allclose(
            correlate_fft(x, y, max_lag),
            correlate_direct(x, y)[: max_lag + 1],
            atol=1e-9,
        )

    @pytest.mark.parametrize("cross", [False, True])
    def test_batch_equals_rows_one_at_a_time(self, cross):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(4, N)).astype(bool)
        y = rng.normal(size=N) if cross else None
        batch = correlate_fft(rows, y, N // 2)
        assert batch.shape == (4, N // 2 + 1)
        for row, out in zip(rows, batch):
            assert np.array_equal(out, correlate_fft(row, y, N // 2))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            correlate_fft(np.ones(3), np.ones(4), 1)

    def test_rejects_negative_max_lag(self):
        with pytest.raises(ValueError, match="max_lag"):
            correlate_fft(np.ones(3), None, -1)

    def test_indicator_autocorrelation_counts_shifted_matches(self):
        # The miner's core identity: corr[p] counts {j: x_j = x_{j+p} = 1}.
        x = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=float)
        corr = np.rint(correlate_fft(x, None, 7)).astype(int)
        for p in range(1, 8):
            expected = int(np.sum(x[:-p] * x[p:]))
            assert corr[p] == expected
