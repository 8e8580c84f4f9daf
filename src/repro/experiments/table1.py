"""Table 1 — candidate period values per periodicity threshold.

The paper mines its Wal-Mart (hourly transactions) and CIMEG (daily
power) databases and tabulates, per threshold from 100% down, how many
candidate periods surface and which.  Expected structure, which the
simulators reproduce:

* retail: the daily period 24 from ~70% down, the weekly period 168,
  and — with DST enabled — obscure off-by-one-hour periods, the
  analogue of the paper's 3961-hour "daylight savings" period;
* power: the weekly period 7 from ~60% down and its multiples;
* monotone nesting: every period detected at a threshold appears at all
  lower thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.periodicity import PeriodicityTable
from ..core.spectral_miner import SpectralMiner
from ..data.power import PowerConsumptionSimulator
from ..data.retail import RetailTransactionsSimulator
from .reporting import format_table

__all__ = ["Table1Config", "Table1Row", "run_table1", "render_table1"]

#: The thresholds of the paper's table, in percent.
DEFAULT_THRESHOLDS = (100, 90, 80, 70, 60, 50, 40, 30, 20, 10)


@dataclass(frozen=True, slots=True)
class Table1Config:
    """Parameters of the Table 1 run."""

    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS
    retail_days: int = 456
    power_days: int = 365
    retail_max_period: int = 512
    dst: bool = True
    sample_size: int = 4
    min_pairs: int = 2
    seed: int = 2004


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One threshold row for one dataset."""

    threshold_percent: int
    period_count: int
    sample_periods: tuple[int, ...]


def _rows(
    table: PeriodicityTable,
    thresholds: tuple[int, ...],
    sample_size: int,
    min_pairs: int,
) -> list[Table1Row]:
    rows = []
    for percent in thresholds:
        periods = table.candidate_periods(percent / 100.0, min_pairs=min_pairs)
        rows.append(
            Table1Row(
                threshold_percent=percent,
                period_count=len(periods),
                sample_periods=tuple(periods[:sample_size]),
            )
        )
    return rows


def run_table1(
    config: Table1Config = Table1Config(),
) -> dict[str, list[Table1Row]]:
    """Mine both datasets once, then tabulate every threshold.

    Returns ``{"retail": rows, "power": rows}``.
    """
    if not config.thresholds:
        raise ValueError("at least one threshold is required")
    rng = np.random.default_rng(config.seed)
    retail = RetailTransactionsSimulator(days=config.retail_days, dst=config.dst).series(rng)
    power = PowerConsumptionSimulator(days=config.power_days).series(rng)
    retail_table = SpectralMiner(
        psi=min(config.thresholds) / 100.0,
        max_period=config.retail_max_period,
    ).periodicity_table(retail)
    power_table = SpectralMiner(
        psi=min(config.thresholds) / 100.0
    ).periodicity_table(power)
    return {
        "retail": _rows(
            retail_table, config.thresholds, config.sample_size, config.min_pairs
        ),
        "power": _rows(
            power_table, config.thresholds, config.sample_size, config.min_pairs
        ),
    }


def render_table1(results: dict[str, list[Table1Row]]) -> str:
    """Render both halves of :func:`run_table1`'s ``results``."""
    blocks = []
    for name, label in (("retail", "Wal-Mart-like data"), ("power", "CIMEG-like data")):
        rows = results[name]
        blocks.append(
            format_table(
                ["threshold %", "# periods", "some periods"],
                [
                    [r.threshold_percent, r.period_count, ", ".join(map(str, r.sample_periods)) or "-"]
                    for r in rows
                ],
                title=f"Table 1 ({label}): candidate period values",
            )
        )
    return "\n\n".join(blocks)
