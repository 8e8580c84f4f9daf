"""Figure 6 — resilience of the miner to noise.

Confidence at the embedded period as the noise ratio grows from 0 to
50%, for every noise combination the paper plots (replacement,
insertion, deletion, and their equal-split mixes), on the two panels
(a) uniform data with P=25 and (b) normal data with P=32.

Expected shape, per the paper: replacement noise degrades gracefully
(confidence ~0.5 at 50% noise — "at 40% periodicity threshold, the
algorithm can tolerate 50% replacement noise"), while any mix involving
insertions or deletions collapses quickly because those shift every
subsequent position off phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.confidence import average_confidences
from .reporting import format_series
from .workloads import SyntheticConfig

__all__ = ["Fig6Config", "run_fig6", "render_fig6"]

#: The noise combinations plotted in the paper's legend.
NOISE_COMBOS = ("R", "I", "D", "R-I", "R-D", "I-D", "R-I-D")


@dataclass(frozen=True, slots=True)
class Fig6Config:
    """Parameters of the Fig. 6 run."""

    distribution: str = "uniform"
    period: int = 25
    ratios: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    combos: tuple[str, ...] = NOISE_COMBOS
    runs: int = 3
    length: int = 50_000
    sigma: int = 10
    seed: int = 2004

    @property
    def panel(self) -> str:
        return f"{self.distribution.capitalize()}, Period={self.period}"


def run_fig6(config: Fig6Config = Fig6Config()) -> dict[str, dict[float, float]]:
    """Series: noise combo -> {noise ratio: mean confidence at the period}."""
    rng = np.random.default_rng(config.seed)
    workload = SyntheticConfig(
        config.distribution, config.period, config.length, config.sigma
    )
    out: dict[str, dict[float, float]] = {}
    for combo in config.combos:
        curve: dict[float, float] = {}
        for ratio in config.ratios:
            confidences = average_confidences(
                lambda child, r=ratio, c=combo: workload.make_series(
                    child, noise_ratio=r, noise_kinds=c
                ),
                [config.period],
                runs=config.runs,
                rng=rng,
            )
            curve[ratio] = confidences[config.period]
        out[combo] = curve
    return out


def render_fig6(series: dict[str, dict[float, float]], config: Fig6Config) -> str:
    """Render :func:`run_fig6`'s ``series`` for ``config`` as a text table."""
    return format_series(
        series,
        x_label="noise ratio",
        y_label="conf",
        title=f"Fig. 6 ({config.panel}): resilience to noise",
    )
