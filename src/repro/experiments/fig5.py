"""Figure 5 — time behaviour versus series length (log-log).

The paper times the periodicity-detection phase of its miner against the
periodic-trends algorithm on Wal-Mart data portions doubling up to
128 MB, finding both near-linear on the log-log plot with the
convolution miner consistently faster — the empirical counterpart of
``O(n log n)`` versus ``O(n log^2 n)``.

Here the same doubling sweep runs over the retail simulator.  Both
sides are timed on their *periodicity-detection phase*, the unit the
paper compares ("the periodicity detection phase of our proposed
algorithm"): the miner runs its FFT detector and nominates plausible
``(period, symbol)`` pairs
(:meth:`SpectralMiner.candidate_period_symbols`); the baseline ranks
the same shift range by sketched self-distances
(:meth:`PeriodicTrends.analyse`).  Neither side pays for per-position
pattern extraction, which the trends algorithm cannot produce at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.timing import time_callable
from ..baselines.periodic_trends import PeriodicTrends
from ..core.sequence import SymbolSequence
from ..core.spectral_miner import SpectralMiner
from ..data.retail import RetailTransactionsSimulator
from .reporting import format_table

__all__ = ["Fig5Config", "Fig5Row", "run_fig5", "render_fig5"]


@dataclass(frozen=True, slots=True)
class Fig5Config:
    """Parameters of the Fig. 5 sweep."""

    sizes: tuple[int, ...] = (4_096, 8_192, 16_384, 32_768, 65_536)
    max_period: int = 512
    psi: float = 0.7
    sketch_dimensions: int = 16
    repeats: int = 3
    seed: int = 2004


@dataclass(frozen=True, slots=True)
class Fig5Row:
    """One sweep point: best-of wall-clock seconds per algorithm."""

    size: int
    miner_seconds: float
    trends_seconds: float


def _retail_series(length: int, rng: np.random.Generator) -> SymbolSequence:
    days = -(-length // 24)
    series = RetailTransactionsSimulator(days=days).series(rng)
    return series[:length]


def run_fig5(config: Fig5Config = Fig5Config()) -> list[Fig5Row]:
    """Time both algorithms at every size; returns one row per size."""
    if not config.sizes:
        raise ValueError("at least one size is required")
    rng = np.random.default_rng(config.seed)
    rows: list[Fig5Row] = []
    for size in config.sizes:
        series = _retail_series(size, rng)
        cap = min(config.max_period, size // 2)
        miner = SpectralMiner(psi=config.psi, max_period=cap)
        trends = PeriodicTrends(
            method="sketch",
            dimensions=config.sketch_dimensions,
            rng=np.random.default_rng(config.seed + size),
        )
        miner_timing = time_callable(
            lambda: miner.candidate_period_symbols(series, config.psi),
            repeats=config.repeats,
        )
        trends_timing = time_callable(
            lambda: trends.analyse(series, max_shift=cap), repeats=config.repeats
        )
        rows.append(
            Fig5Row(
                size=size,
                miner_seconds=miner_timing.best,
                trends_seconds=trends_timing.best,
            )
        )
    return rows


def render_fig5(rows: list[Fig5Row]) -> str:
    """Render :func:`run_fig5`'s ``rows`` as a text table."""
    return format_table(
        ["n (symbols)", "miner (s)", "periodic trends (s)", "speedup"],
        [
            [
                row.size,
                f"{row.miner_seconds:.4f}",
                f"{row.trends_seconds:.4f}",
                f"{row.trends_seconds / max(row.miner_seconds, 1e-12):.1f}x",
            ]
            for row in rows
        ],
        title="Fig. 5: time behaviour (best of repeats, doubling sizes)",
    )
