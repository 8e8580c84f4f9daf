"""End-to-end pipeline: numeric values -> discretize -> mine -> report.

The front door a downstream user actually wants: hand in raw numeric
measurements, get back the informative periods (harmonics collapsed,
optionally significance-filtered), the patterns, and the anomalous
segments — the full arc of the paper applied in one call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analysis.anomalies import SegmentAnomaly, find_anomalies
from .analysis.harmonics import HarmonicFamily, base_periods
from .analysis.significance import significant_periods
from .core.patterns import PeriodicPattern
from .core.results import MiningResult, mine
from .core.sequence import SymbolSequence
from .data.discretize import Discretizer, QuantileDiscretizer

__all__ = ["PipelineReport", "PeriodicityPipeline"]


@dataclass(frozen=True, slots=True)
class PipelineReport:
    """Everything one pipeline run produced."""

    series: SymbolSequence
    result: MiningResult
    families: tuple[HarmonicFamily, ...]
    significant: tuple[int, ...]
    anomalies: tuple[SegmentAnomaly, ...]

    @property
    def base_periods(self) -> tuple[int, ...]:
        """The informative base periods, strongest first."""
        return tuple(f.base for f in self.families)

    def patterns_for_base(self, index: int = 0) -> tuple[PeriodicPattern, ...]:
        """Patterns of the ``index``-th base period."""
        if not self.families:
            return ()
        return self.result.patterns_for(self.families[index].base)

    def render(self) -> str:
        """Human-readable pipeline summary."""
        lines = [
            f"n={self.series.length}, sigma={self.series.sigma}, "
            f"psi={self.result.psi:.2f}"
        ]
        if not self.families:
            lines.append("no periodic structure found")
            return "\n".join(lines)
        for family in self.families[:5]:
            marker = "*" if family.base in self.significant else " "
            lines.append(
                f" {marker} base period {family.base:>5}  "
                f"confidence {family.confidence:.2f}  "
                f"harmonics {list(family.harmonics)[:4]}"
            )
        top = sorted(self.patterns_for_base(), key=lambda p: -p.support)[:5]
        for pattern in top:
            lines.append(
                f"    {pattern.to_string(self.series.alphabet)}  "
                f"support {pattern.support:.2f}"
            )
        if self.anomalies:
            worst = self.anomalies[0]
            lines.append(
                f"  {len(self.anomalies)} anomalous segment(s); worst at "
                f"positions {worst.start}-{worst.end} (score {worst.score:.2f})"
            )
        return "\n".join(lines)


class PeriodicityPipeline:
    """Configure once, run on any numeric series.

    Parameters
    ----------
    discretizer:
        Numeric-to-symbol discretizer (default: five quantile levels).
    psi:
        Periodicity threshold.
    max_period:
        Period search cap.
    algorithm:
        ``"spectral"`` or ``"convolution"``.
    max_arity:
        Pattern depth cap (pattern mining is restricted to the base
        periods, so this guards the Cartesian blow-up).
    significance_alpha:
        Alpha for the binomial period filter (``None`` disables).
    anomaly_threshold:
        Violation score at which a segment is flagged (``None``
        disables anomaly detection).
    engine:
        Exact-engine choice when ``algorithm="convolution"``; with
        ``"parallel"`` the scouting stage runs the sharded count-only
        fast path (:mod:`repro.parallel`).
    workers:
        Worker cap for ``engine="parallel"``.
    """

    def __init__(
        self,
        discretizer: Discretizer | None = None,
        psi: float = 0.5,
        max_period: int | None = None,
        algorithm: str = "spectral",
        max_arity: int | None = 6,
        significance_alpha: float | None = 1e-3,
        anomaly_threshold: float | None = 0.6,
        engine: str = "bitand",
        workers: int | None = None,
    ) -> None:
        if not 0 < psi <= 1:
            raise ValueError("psi must lie in (0, 1]")
        self._discretizer = QuantileDiscretizer() if discretizer is None else discretizer
        self._psi = psi
        self._max_period = max_period
        self._algorithm = algorithm
        self._max_arity = max_arity
        self._alpha = significance_alpha
        self._anomaly_threshold = anomaly_threshold
        self._engine = engine
        self._workers = workers

    def run_values(
        self, values: Sequence[float] | np.ndarray
    ) -> PipelineReport:
        """Discretize a numeric series and run the full pipeline."""
        return self.run(self._discretizer.discretize(values))

    def run(self, series: SymbolSequence) -> PipelineReport:
        """Run the pipeline on an already-symbolic series."""
        # Stage 1: mine the evidence table; defer pattern mining until
        # the base periods are known (Definition 3 explodes on their
        # multiples).  With the parallel convolution engine this stage
        # runs the sharded count-only fast path.
        scouting = mine(
            series,
            psi=self._psi,
            algorithm=self._algorithm,
            max_period=self._max_period,
            periods=[],
            engine=self._engine,
            workers=self._workers,
        )
        families = tuple(base_periods(scouting.table, self._psi))
        bases = [f.base for f in families]
        # Stage 2 re-derives patterns from the stage-1 evidence table —
        # the series is packed and mined exactly once per run.
        result = mine(
            series,
            psi=self._psi,
            algorithm=self._algorithm,
            max_period=self._max_period,
            periods=bases[:5],
            max_arity=self._max_arity,
            table=scouting.table,
        )
        significant: tuple[int, ...] = ()
        if self._alpha is not None:
            significant = tuple(
                significant_periods(
                    series, result.table, self._psi, alpha=self._alpha
                )
            )
        anomalies: tuple[SegmentAnomaly, ...] = ()
        if self._anomaly_threshold is not None and families:
            base = families[0].base
            patterns = [
                p for p in result.patterns_for(base) if p.support >= self._psi
            ]
            if patterns:
                anomalies = tuple(
                    find_anomalies(
                        series, patterns, threshold=self._anomaly_threshold
                    )
                )
        return PipelineReport(
            series=series,
            result=result,
            families=families,
            significant=significant,
            anomalies=anomalies,
        )
