"""Detection-confidence measurement (the y-axis of Figs. 3, 4, and 6).

The paper's correctness experiments report, per period, "the minimum
periodicity threshold value required to detect a specific period" and
call it the *confidence* of that period.  For the convolution miner this
equals the best support of any symbol periodicity at the period; for the
periodic-trends baseline the paper substitutes the normalised candidacy
rank.  The helpers here compute both and average them over repeated
randomised runs, which is how every figure series is produced.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..baselines.periodic_trends import PeriodicTrends
from ..core.sequence import SymbolSequence
from ..core.spectral_miner import SpectralMiner

__all__ = [
    "miner_confidences",
    "trends_confidences",
    "average_confidences",
]


def miner_confidences(
    series: SymbolSequence,
    periods: Sequence[int],
    max_period: int | None = None,
) -> dict[int, float]:
    """Confidence of each period under the obscure-patterns miner.

    Uses the spectral miner unpruned so small supports remain visible.
    """
    periods = [int(p) for p in periods]
    if not periods:
        raise ValueError("at least one period is required")
    cap = max(periods) if max_period is None else max_period
    table = SpectralMiner(max_period=min(cap, series.length - 1)).periodicity_table(
        series
    )
    return {p: table.confidence(p) for p in periods}


def trends_confidences(
    series: SymbolSequence,
    periods: Sequence[int],
    trends: PeriodicTrends | None = None,
    max_shift: int | None = None,
) -> dict[int, float]:
    """Normalised-rank confidence of each period under periodic trends.

    The full shift range (default ``n // 2``) is ranked — ranking only
    the queried periods would hide the baseline's bias, which is the
    point of Fig. 4.
    """
    periods = [int(p) for p in periods]
    if not periods:
        raise ValueError("at least one period is required")
    trends = PeriodicTrends() if trends is None else trends
    result = trends.analyse(series, max_shift=max_shift)
    return {p: result.confidence(p) for p in periods}


def average_confidences(
    make_series: Callable[[np.random.Generator], SymbolSequence],
    periods: Sequence[int],
    runs: int,
    rng: np.random.Generator | None = None,
    score: Callable[[SymbolSequence, Sequence[int]], dict[int, float]] = miner_confidences,
) -> dict[int, float]:
    """Mean per-period confidence over ``runs`` generated series.

    Parameters
    ----------
    make_series:
        Generator invoked once per run with a child RNG.
    periods:
        Periods to evaluate (e.g. ``[P, 2*P, 3*P]``).
    runs:
        Number of repetitions ("the values collected are averaged over
        100 runs" in the paper; scale to taste).
    score:
        Per-run confidence function, called as ``score(series, periods)``:
        :func:`miner_confidences`, or e.g.
        ``functools.partial(trends_confidences, trends=...)``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rng = np.random.default_rng() if rng is None else rng
    totals = {int(p): 0.0 for p in periods}
    for _ in range(runs):
        for p, c in score(make_series(rng), periods).items():
            totals[p] += c
    return {p: total / runs for p, total in totals.items()}
