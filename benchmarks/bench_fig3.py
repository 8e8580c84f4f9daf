"""Fig. 3 — correctness of the obscure periodic patterns miner.

Regenerates both panels (inerrant and noisy synthetic data, the four
U/N x P25/P32 workloads) and asserts the paper's findings: confidence 1
everywhere on inerrant data; high and period-unbiased confidence under
noise.
"""

import pytest

from repro.experiments import Fig3Config, ascii_plot, render_fig3, run_fig3

from _bench_utils import record

INERRANT = Fig3Config(runs=2, length=30_000, multiples=(1, 2, 3, 4, 5))
NOISY = Fig3Config(
    runs=2, length=30_000, multiples=(1, 2, 3, 4, 5),
    noisy=True, noise_ratio=0.15, noise_kinds="R",
)


@pytest.mark.benchmark(group="fig3")
def test_fig3a_inerrant(benchmark):
    series = benchmark.pedantic(lambda: run_fig3(INERRANT), rounds=1, iterations=1)
    record("fig3a", render_fig3(series, INERRANT))
    for curve in series.values():
        for confidence in curve.values():
            assert confidence == pytest.approx(1.0)


@pytest.mark.benchmark(group="fig3")
def test_fig3b_noisy(benchmark):
    series = benchmark.pedantic(lambda: run_fig3(NOISY), rounds=1, iterations=1)
    record("fig3b", render_fig3(series, NOISY))
    record(
        "fig3b_chart",
        ascii_plot(series, y_min=0.0, y_max=1.0,
                   title="Fig. 3(b) Noisy Data (confidence vs multiple)"),
    )
    for curve in series.values():
        values = list(curve.values())
        assert all(v > 0.6 for v in values), "confidence must stay high"
        assert max(values) - min(values) < 0.1, "must be unbiased in the period"
