"""Table 3 — multi-symbol periodic patterns of the retail data.

The paper's final output: the periodic patterns of the Wal-Mart data at
period 24 for a 35% periodicity threshold — long patterns fixing the
overnight very-low hours plus daytime level bands, e.g.
``aaaa****bbbbc***********aa``-style strings, with supports between the
threshold and ~60%.  This experiment mines the retail simulator the same
way and reports the top patterns by support and the deepest (highest
arity) ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.patterns import PeriodicPattern
from ..core.results import MiningResult, mine
from ..data.retail import RetailTransactionsSimulator
from .reporting import format_table

__all__ = ["Table3Config", "run_table3", "render_table3"]


@dataclass(frozen=True, slots=True)
class Table3Config:
    """Parameters of the Table 3 run."""

    psi: float = 0.35
    period: int = 24
    retail_days: int = 456
    max_arity: int | None = 10
    top: int = 12
    seed: int = 2004


def run_table3(config: Table3Config = Table3Config()) -> MiningResult:
    """Mine the retail data at the table's threshold and period."""
    rng = np.random.default_rng(config.seed)
    series = RetailTransactionsSimulator(days=config.retail_days).series(rng)
    return mine(
        series,
        psi=config.psi,
        max_period=config.period,
        periods=[config.period],
        max_arity=config.max_arity,
    )


def select_display_patterns(
    result: MiningResult, period: int, top: int
) -> list[PeriodicPattern]:
    """The paper-style selection: deepest patterns first, then support."""
    patterns = [p for p in result.patterns if p.period == period and p.arity >= 2]
    patterns.sort(key=lambda p: (-p.arity, -p.support))
    # Keep only maximal-information rows: drop patterns subsumed by a
    # kept pattern with at least the same support.
    kept: list[PeriodicPattern] = []
    for pattern in patterns:
        items = set(pattern.items)
        if any(
            items < set(k.items) and pattern.support <= k.support + 1e-12
            for k in kept
        ):
            continue
        kept.append(pattern)
        if len(kept) == top:
            break
    return kept


def render_table3(result: MiningResult, config: Table3Config) -> str:
    """Render :func:`run_table3`'s ``result`` for ``config`` as a table."""
    rows = [
        [pattern.to_string(result.alphabet), f"{pattern.support * 100:.1f}"]
        for pattern in select_display_patterns(result, config.period, config.top)
    ]
    return format_table(
        ["periodic pattern", "support (%)"],
        rows,
        title=(
            f"Table 3 (Wal-Mart-like data, period={config.period}, "
            f"threshold={config.psi * 100:.0f}%): periodic patterns"
        ),
    )
