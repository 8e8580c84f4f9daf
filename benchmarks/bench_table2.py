"""Table 2 — periodic single-symbol patterns at the expected periods.

Regenerates the period-24 (retail) and period-7 (power) single-symbol
pattern tables per threshold and asserts the paper's structure: strict
nesting across thresholds, very-low overnight retail patterns at high
thresholds, and the power data's habitual-day pattern in the 50-60%
band (the paper's "(a,3)" finding).
"""

import pytest

from repro.experiments import Table2Config, render_table2, run_table2

from _bench_utils import record

CONFIG = Table2Config(
    retail_days=456,
    power_days=365,
    thresholds=(95, 90, 80, 70, 60, 50),
)


@pytest.mark.benchmark(group="table2")
def test_table2(benchmark):
    results = benchmark.pedantic(lambda: run_table2(CONFIG), rounds=1, iterations=1)
    record("table2", render_table2(results, CONFIG))

    # Nesting: pattern counts grow as the threshold drops.
    for rows in results.values():
        by_threshold = {r.threshold_percent: r.pattern_count for r in rows}
        thresholds = sorted(by_threshold, reverse=True)
        counts = [by_threshold[t] for t in thresholds]
        assert counts == sorted(counts)

    retail = {r.threshold_percent: r for r in results["retail"]}
    power = {r.threshold_percent: r for r in results["power"]}

    # Overnight zero-transaction habits surface by the 80% threshold.
    symbols_80 = {s for s, _ in retail[80].sample_patterns}
    assert "a" in symbols_80

    # The power data's habitual very-low day appears by 50% but not at 80%
    # (a *partial* periodicity, the paper's "(a,3)"-style pattern).
    low_at_50 = {(s, l) for s, l in power[50].sample_patterns if s == "a"}
    low_at_80 = {(s, l) for s, l in power[80].sample_patterns if s == "a"}
    assert low_at_50
    assert not low_at_80
