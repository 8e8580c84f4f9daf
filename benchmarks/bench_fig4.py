"""Fig. 4 — correctness of the periodic-trends baseline.

Regenerates both panels with the Indyk et al. algorithm and asserts the
paper's finding: the normalised-rank confidence is biased toward larger
periods (it rises along P, 2P, ...).  An extra ablation shows the bias
vanishing when distances are normalised per aligned position.
"""

import numpy as np
import pytest

from repro.baselines import PeriodicTrends
from repro.data import apply_noise, generate_periodic
from repro.experiments import (
    Fig4Config,
    ascii_plot,
    format_table,
    render_fig4,
    run_fig4,
)

from _bench_utils import record

INERRANT = Fig4Config(runs=2, length=6_000, multiples=(1, 2, 3, 5, 10, 20, 40, 60))
NOISY = Fig4Config(
    runs=2, length=6_000, multiples=(1, 2, 3, 5, 10, 20, 40, 60),
    noisy=True, noise_ratio=0.15, method="exact",
)


@pytest.mark.benchmark(group="fig4")
def test_fig4a_inerrant(benchmark):
    series = benchmark.pedantic(lambda: run_fig4(INERRANT), rounds=1, iterations=1)
    record("fig4a", render_fig4(series, INERRANT))
    # On perfectly periodic data every embedded multiple has distance ~0,
    # so all confidences sit near the top of the ranking.
    for curve in series.values():
        assert min(curve.values()) > 0.9


@pytest.mark.benchmark(group="fig4")
def test_fig4b_noisy_shows_large_period_bias(benchmark):
    series = benchmark.pedantic(lambda: run_fig4(NOISY), rounds=1, iterations=1)
    record("fig4b", render_fig4(series, NOISY))
    record(
        "fig4b_chart",
        ascii_plot(series, title="Fig. 4(b) Noisy Data (bias toward large periods)"),
    )
    for curve in series.values():
        multiples = sorted(curve)
        assert curve[multiples[-1]] > curve[multiples[0]], (
            "the trends ranking must favour larger periods"
        )


@pytest.mark.benchmark(group="fig4")
def test_fig4_ablation_normalized_ranking(benchmark):
    """Dividing D(p) by (n - p) removes the large-period bias."""

    def run():
        rng = np.random.default_rng(2004)
        series = apply_noise(
            generate_periodic(6_000, 25, 10, rng=rng), 0.15, "R", rng
        )
        raw = PeriodicTrends(method="exact").analyse(series)
        normalized = PeriodicTrends(method="exact", normalize=True).analyse(series)
        return raw, normalized

    raw, normalized = benchmark.pedantic(run, rounds=1, iterations=1)
    n, base, far = 6_000, 25, 25 * 60
    rows = [
        ["raw (paper)", f"{raw.distances[base]:.0f}", f"{raw.distances[far]:.0f}",
         raw.rank(base), raw.rank(far)],
        ["normalized",
         f"{raw.distances[base] / (n - base):.4f}",
         f"{raw.distances[far] / (n - far):.4f}",
         normalized.rank(base), normalized.rank(far)],
    ]
    record(
        "fig4_ablation_normalize",
        format_table(
            ["ranking", "score(P=25)", "score(60P)", "rank(P)", "rank(60P)"],
            rows,
            title="Fig. 4 ablation: raw vs normalised trend objective",
        ),
    )
    # The raw objective is systematically smaller at the far multiple
    # (fewer aligned positions), which is the source of the bias...
    assert raw.distances[far] < 0.85 * raw.distances[base]
    assert raw.rank(far) < raw.rank(base)
    # ...while the per-position mismatch rates are statistically equal,
    # so normalisation levels the multiples instead of favouring one.
    rate_base = raw.distances[base] / (n - base)
    rate_far = raw.distances[far] / (n - far)
    assert abs(rate_base - rate_far) < 0.05 * rate_base
