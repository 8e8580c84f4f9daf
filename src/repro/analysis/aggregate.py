"""Aggregating periodicity evidence across many series.

The paper's real datasets are collections — "daily power consumption
rates of *some customers*", "timed sales transactions for *some*
Wal-Mart stores" — mined one series at a time.  This module provides the
cross-series view a deployment needs: mine every series, then find the
periods that hold across the population (consensus) and how strongly
(mean confidence), so a fleet-level weekly rhythm is separable from one
customer's idiosyncrasy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..core.periodicity import PeriodicityTable
from ..core.sequence import SymbolSequence
from ..core.spectral_miner import SpectralMiner

__all__ = ["PeriodConsensus", "mine_many", "consensus_periods"]


@dataclass(frozen=True, slots=True)
class PeriodConsensus:
    """Cross-series agreement on one period.

    Attributes
    ----------
    period:
        The period.
    detections:
        How many series detect it at the queried threshold.
    series_count:
        How many series were mined.
    mean_confidence:
        Mean per-series confidence (best support) at this period.
    """

    period: int
    detections: int
    series_count: int
    mean_confidence: float

    @property
    def prevalence(self) -> float:
        """Fraction of series detecting the period."""
        return self.detections / self.series_count if self.series_count else 0.0


def mine_many(
    series_collection: Iterable[SymbolSequence],
    max_period: int | None = None,
) -> list[PeriodicityTable]:
    """Mine every series with the spectral miner; returns the full tables.

    No cell is pruned, so :func:`consensus_periods` reads each series'
    exact confidence at any threshold.
    """
    tables = [
        SpectralMiner(psi=None, max_period=max_period).periodicity_table(series)
        for series in series_collection
    ]
    if not tables:
        raise ValueError("at least one series is required")
    return tables


def consensus_periods(
    tables: Sequence[PeriodicityTable],
    psi: float,
    min_prevalence: float = 0.5,
    min_pairs: int = 1,
) -> list[PeriodConsensus]:
    """Periods detected (at ``psi``) in at least ``min_prevalence`` of
    the series, strongest consensus first.

    Sorted by (prevalence, mean confidence) descending, then by period
    ascending so base periods precede their multiples on ties.
    """
    if not tables:
        raise ValueError("at least one table is required")
    if not 0 < min_prevalence <= 1:
        raise ValueError("min_prevalence must lie in (0, 1]")
    total = len(tables)
    detections: dict[int, int] = {}
    confidence_sums: dict[int, float] = {}
    for table in tables:
        for period in table.candidate_periods(psi, min_pairs=min_pairs):
            detections[period] = detections.get(period, 0) + 1
    for period in detections:
        confidence_sums[period] = sum(t.confidence(period) for t in tables)
    out = [
        PeriodConsensus(
            period=period,
            detections=count,
            series_count=total,
            mean_confidence=confidence_sums[period] / total,
        )
        for period, count in detections.items()
        if count / total >= min_prevalence
    ]
    out.sort(key=lambda c: (-c.prevalence, -c.mean_confidence, c.period))
    return out
