"""Analysis harness: confidence, timing, significance, aggregation."""

from .confidence import average_confidences, miner_confidences, trends_confidences
from .timing import Timing, time_callable
from .significance import (
    ScoredPeriodicity,
    binomial_tail,
    score_periodicities,
    significant_periods,
)
from .aggregate import PeriodConsensus, consensus_periods, mine_many
from .harmonics import HarmonicFamily, base_periods, group_harmonics
from .forecast import ForecastEvaluation, PeriodicForecaster, evaluate_forecaster
from .anomalies import SegmentAnomaly, find_anomalies
from .calendar import PeriodDescription, describe_period

__all__ = [
    "average_confidences",
    "miner_confidences",
    "trends_confidences",
    "Timing",
    "time_callable",
    "ScoredPeriodicity",
    "binomial_tail",
    "score_periodicities",
    "significant_periods",
    "PeriodConsensus",
    "consensus_periods",
    "mine_many",
    "HarmonicFamily",
    "base_periods",
    "group_harmonics",
    "ForecastEvaluation",
    "PeriodicForecaster",
    "evaluate_forecaster",
    "SegmentAnomaly",
    "find_anomalies",
    "PeriodDescription",
    "describe_period",
]
