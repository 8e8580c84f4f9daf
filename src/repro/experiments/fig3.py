"""Figure 3 — correctness of the obscure periodic patterns miner.

Panel (a): on inerrant (perfectly periodic) synthetic data the miner
must detect every embedded periodicity — the periods ``P, 2P, 3P, ...``
— with confidence 1 for all four workload configurations.

Panel (b): with noise the confidences drop but stay high (the paper
reports values above 0.7) and, crucially, remain *unbiased in the
period* — the curve is flat across ``P, 2P, 3P, ...`` (contrast Fig. 4).
The paper does not print its Fig. 3(b) noise mix; a replacement-leaning
mix of modest ratio reproduces its confidence band, and both knobs are
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.confidence import average_confidences
from .reporting import format_series
from .workloads import _paper_configs

__all__ = ["Fig3Config", "run_fig3", "render_fig3"]


@dataclass(frozen=True, slots=True)
class Fig3Config:
    """Parameters of the Fig. 3 run."""

    noisy: bool = False
    noise_ratio: float = 0.15
    noise_kinds: str = "R"
    multiples: tuple[int, ...] = (1, 2, 3, 4, 5)
    runs: int = 3
    length: int | None = None
    seed: int = 2004


def run_fig3(config: Fig3Config = Fig3Config()) -> dict[str, dict[int, float]]:
    """Produce the figure's series: label -> {period multiple m: confidence}.

    The x key is the multiple ``m`` (1 for P, 2 for 2P, ...), matching
    the paper's "P 2P 3P ..." axis across configurations with different
    base periods.
    """
    rng = np.random.default_rng(config.seed)
    out: dict[str, dict[int, float]] = {}
    for workload in _paper_configs(config.length):
        periods = workload.periods_for(config.multiples)
        ratio = config.noise_ratio if config.noisy else 0.0
        confidences = average_confidences(
            lambda child, w=workload: w.make_series(
                child, noise_ratio=ratio, noise_kinds=config.noise_kinds
            ),
            periods,
            runs=config.runs,
            rng=rng,
        )
        out[workload.label] = {
            p // workload.period: confidences[p] for p in periods
        }
    return out


def render_fig3(series: dict[str, dict[int, float]], config: Fig3Config) -> str:
    """Render :func:`run_fig3`'s ``series`` for ``config`` as a text table."""
    variant = "(b) Noisy Data" if config.noisy else "(a) Inerrant Data"
    return format_series(
        series,
        x_label="multiple",
        y_label="conf",
        title=f"Fig. 3{variant}: correctness of the obscure periodic patterns miner",
    )
