"""Figure 4 — correctness of the periodic-trends baseline.

The same workloads as Fig. 3 run through the Indyk et al. algorithm,
reading its normalised candidacy rank as the confidence.  The paper's
finding, which this experiment reproduces: the ranking is *biased toward
larger periods* — confidence rises along ``P, 2P, 3P, ...`` because the
raw shifted self-distance shrinks with the shift — whereas the paper
argues the smallest period is the informative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..analysis.confidence import average_confidences, trends_confidences
from ..baselines.periodic_trends import PeriodicTrends
from .reporting import format_series
from .workloads import _paper_configs

__all__ = ["Fig4Config", "run_fig4", "render_fig4"]


@dataclass(frozen=True, slots=True)
class Fig4Config:
    """Parameters of the Fig. 4 run."""

    noisy: bool = False
    noise_ratio: float = 0.15
    noise_kinds: str = "R"
    # Wide multiples expose the large-period bias: the raw distance sums
    # over n - p positions, so p must span a real fraction of n.
    multiples: tuple[int, ...] = (1, 2, 3, 5, 10, 20, 40, 60)
    runs: int = 3
    length: int | None = 6_000  # trends ranks all n/2 shifts; keep runs quick
    sketch_dimensions: int = 32
    method: str = "sketch"
    seed: int = 2004


def run_fig4(config: Fig4Config = Fig4Config()) -> dict[str, dict[int, float]]:
    """Series: label -> {period multiple m: normalised-rank confidence}."""
    rng = np.random.default_rng(config.seed)
    out: dict[str, dict[int, float]] = {}
    for workload in _paper_configs(config.length):
        periods = workload.periods_for(config.multiples)
        ratio = config.noise_ratio if config.noisy else 0.0
        trends = PeriodicTrends(
            method=config.method,
            dimensions=config.sketch_dimensions,
            rng=np.random.default_rng(config.seed + 1),
        )
        confidences = average_confidences(
            lambda child, w=workload: w.make_series(
                child, noise_ratio=ratio, noise_kinds=config.noise_kinds
            ),
            periods,
            runs=config.runs,
            rng=rng,
            score=partial(trends_confidences, trends=trends),
        )
        out[workload.label] = {
            p // workload.period: confidences[p] for p in periods
        }
    return out


def render_fig4(series: dict[str, dict[int, float]], config: Fig4Config) -> str:
    """Render :func:`run_fig4`'s ``series`` for ``config`` as a text table."""
    variant = "(b) Noisy Data" if config.noisy else "(a) Inerrant Data"
    return format_series(
        series,
        x_label="multiple",
        y_label="conf",
        title=f"Fig. 4{variant}: correctness of the periodic trends algorithm",
    )
