"""Ablation — direct versus FFT correlation.

Every match count ``M_k(p)`` comes from one correlation engine,
:func:`repro.convolution.correlate_fft` on numpy's transform; the
O(n^2) :func:`repro.convolution.correlate_direct` is its reference.
This bench times both on the autocorrelation the detector actually runs
(all lags of a 0/1 indicator) and asserts that they agree.
"""

import numpy as np
import pytest

from repro.convolution import correlate_direct, correlate_fft

N = 4_096


@pytest.fixture(scope="module")
def indicator():
    rng = np.random.default_rng(2004)
    return (rng.integers(0, 5, size=N) == 0).astype(np.float64)


@pytest.mark.benchmark(group="ablation-fft")
def test_direct_correlation(benchmark, indicator):
    out = benchmark(lambda: correlate_direct(indicator, indicator))
    assert out[0] == pytest.approx(indicator.sum())


@pytest.mark.benchmark(group="ablation-fft")
def test_fft_correlation(benchmark, indicator):
    out = benchmark(lambda: correlate_fft(indicator, None, N - 1))
    assert np.rint(out[0]) == indicator.sum()


@pytest.mark.benchmark(group="ablation-fft")
def test_engines_agree(benchmark, indicator):
    def run():
        return (
            correlate_direct(indicator, indicator),
            correlate_fft(indicator, None, N - 1),
        )

    direct, fast = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_allclose(direct, fast, atol=1e-6)
