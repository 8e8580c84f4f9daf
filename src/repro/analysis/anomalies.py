"""Anomaly detection against mined periodic patterns.

The paper's related-work section cites surprising-pattern detection
(Keogh et al.) as the sibling problem; with periodic patterns in hand it
becomes a one-liner of policy: *a segment is anomalous when it violates
patterns that normally hold*.  This module scores each period segment by
the support-weighted fraction of mined patterns it breaks and flags the
outliers — e.g. the holiday in the retail data, or the vacation week in
the power data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pattern_text import segment_matches
from ..core.patterns import PeriodicPattern
from ..core.sequence import SymbolSequence

__all__ = ["SegmentAnomaly", "find_anomalies"]


@dataclass(frozen=True, slots=True)
class SegmentAnomaly:
    """One anomalous period segment.

    Attributes
    ----------
    segment:
        Segment index (segment ``m`` covers ``[m*p, (m+1)*p)``).
    start / end:
        Series positions of the segment.
    score:
        Violation score in ``[0, 1]`` (1 = breaks every pattern).
    violated:
        The patterns the segment breaks, strongest first.
    """

    segment: int
    start: int
    end: int
    score: float
    violated: tuple[PeriodicPattern, ...]


def _match_matrix(
    series: SymbolSequence, patterns: list[PeriodicPattern]
) -> np.ndarray:
    """The ``(segments, patterns)`` bool matrix of which segment matches
    which pattern."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    periods = {p.period for p in patterns}
    if len(periods) != 1:
        raise ValueError("all patterns must share one period")
    if series.length < periods.pop():
        raise ValueError("the series is shorter than one period")
    return np.stack([segment_matches(series, p) for p in patterns], axis=1)


def _scores(patterns: list[PeriodicPattern], matches: np.ndarray) -> np.ndarray:
    weights = np.array([max(p.support, 1e-9) for p in patterns])
    violated_weight = ((~matches) * weights[None, :]).sum(axis=1)
    return violated_weight / weights.sum()


def find_anomalies(
    series: SymbolSequence,
    patterns: list[PeriodicPattern],
    threshold: float = 0.5,
    top: int | None = None,
) -> list[SegmentAnomaly]:
    """Segments whose violation score reaches ``threshold``, worst first.

    All patterns must share one period.  The score of segment ``m`` is
    ``sum(support of violated patterns) / sum(all supports)``.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    matches = _match_matrix(series, patterns)
    scores = _scores(patterns, matches)
    period = patterns[0].period
    flagged: list[SegmentAnomaly] = []
    for segment in np.nonzero(scores >= threshold)[0]:
        violated = tuple(
            sorted(
                (p for p, ok in zip(patterns, matches[segment]) if not ok),
                key=lambda p: -p.support,
            )
        )
        flagged.append(
            SegmentAnomaly(
                segment=int(segment),
                start=int(segment) * period,
                end=(int(segment) + 1) * period,
                score=float(scores[segment]),
                violated=violated,
            )
        )
    flagged.sort(key=lambda a: (-a.score, a.segment))
    if top is not None:
        flagged = flagged[:top]
    return flagged
