"""Fig. 6 — resilience of the miner to noise.

Regenerates both panels (uniform P=25 and normal P=32) across all seven
noise combinations and ratios 0-50%, and asserts the paper's findings:
replacement noise degrades gracefully (still detectable at a 40%
threshold under 50% noise), while insertion/deletion mixes collapse to
the 5-10% confidence regime.
"""

import pytest

from repro.experiments import Fig6Config, ascii_plot, render_fig6, run_fig6

from _bench_utils import record

PANEL_A = Fig6Config(
    distribution="uniform", period=25, runs=2, length=20_000,
    ratios=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
)
PANEL_B = Fig6Config(
    distribution="normal", period=32, runs=2, length=20_000,
    ratios=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
)


def _check_panel(series):
    # Replacement: graceful degradation, monotone-ish, tolerable at 50%.
    replacement = series["R"]
    assert replacement[0.0] == pytest.approx(1.0)
    assert replacement[0.5] > 0.2  # "tolerate 50% replacement noise at 40%
    #                                 periodicity threshold" (approx band)
    assert replacement[0.1] > replacement[0.5]
    # Insertion/deletion: collapse fast but stay in the small-threshold
    # regime the paper calls "5% to 10% ... not uncommon".
    for combo in ("I", "D", "I-D", "R-I-D"):
        assert series[combo][0.3] < 0.3
        assert series[combo][0.3] > 0.01
    # Replacement always beats the shifting noise kinds.
    for ratio in (0.2, 0.4):
        assert replacement[ratio] > series["I-D"][ratio]


@pytest.mark.benchmark(group="fig6")
def test_fig6a_uniform_p25(benchmark):
    series = benchmark.pedantic(lambda: run_fig6(PANEL_A), rounds=1, iterations=1)
    record("fig6a", render_fig6(series, PANEL_A))
    record(
        "fig6a_chart",
        ascii_plot(series, y_min=0.0, y_max=1.0,
                   title="Fig. 6(a) (confidence vs noise ratio)"),
    )
    _check_panel(series)


@pytest.mark.benchmark(group="fig6")
def test_fig6b_normal_p32(benchmark):
    series = benchmark.pedantic(lambda: run_fig6(PANEL_B), rounds=1, iterations=1)
    record("fig6b", render_fig6(series, PANEL_B))
    _check_panel(series)
