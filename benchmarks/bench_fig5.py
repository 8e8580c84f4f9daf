"""Fig. 5 — time behaviour versus series length.

Times the periodicity-detection phases of the miner and the
periodic-trends baseline on doubling retail-data sizes and asserts the
paper's findings: the miner wins at every size, and both algorithms grow
near-linearly on the log-log plot (doubling n far less than quadruples
either time).

The two per-size kernels are additionally registered as individual
pytest-benchmark measurements so the harness records calibrated timings
for the largest size.
"""

import numpy as np
import pytest

from repro.baselines import PeriodicTrends
from repro.core import SpectralMiner
from repro.data import RetailTransactionsSimulator
from repro.experiments import Fig5Config, render_fig5, run_fig5

from _bench_utils import record

SWEEP = Fig5Config(
    sizes=(8_192, 16_384, 32_768, 65_536, 131_072),
    max_period=512,
    repeats=3,
    sketch_dimensions=16,
)

_LARGEST = 131_072


@pytest.fixture(scope="module")
def large_series():
    days = -(-_LARGEST // 24)  # hourly: whole days covering _LARGEST symbols
    series = RetailTransactionsSimulator(days=days).series(np.random.default_rng(2004))
    return series[:_LARGEST]


@pytest.mark.benchmark(group="fig5-sweep")
def test_fig5_sweep(benchmark):
    rows = benchmark.pedantic(lambda: run_fig5(SWEEP), rounds=1, iterations=1)
    record("fig5", render_fig5(rows))
    for row in rows:
        assert row.miner_seconds < row.trends_seconds, (
            f"miner must outperform trends at n={row.size}"
        )
    # Near-linear growth: 16x more data costs well under 16 * 4 = 64x time.
    first, last = rows[0], rows[-1]
    scale = last.size / first.size
    assert last.miner_seconds < 4 * scale * first.miner_seconds
    assert last.trends_seconds < 4 * scale * first.trends_seconds


@pytest.mark.benchmark(group="fig5-kernels")
def test_fig5_kernel_miner(benchmark, large_series):
    miner = SpectralMiner(psi=0.7, max_period=512)
    pairs = benchmark(lambda: miner.candidate_period_symbols(large_series, 0.7))
    assert any(p % 24 == 0 for p, _ in pairs)


@pytest.mark.benchmark(group="fig5-kernels")
def test_fig5_kernel_trends(benchmark, large_series):
    trends = PeriodicTrends(
        method="sketch", dimensions=16, rng=np.random.default_rng(7)
    )
    result = benchmark(lambda: trends.analyse(large_series, max_shift=512))
    assert len(result.ranked_periods) == 512
