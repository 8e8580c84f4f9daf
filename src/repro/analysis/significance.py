"""Statistical significance of detected symbol periodicities.

Definition 1 is a pure threshold test: any ``F2 / pairs >= psi``
qualifies, even when the projection has two elements and the symbol
covers half the alphabet — which is why real-data runs (Table 1) list
hundreds of trivially-supported near-``n/2`` periods.  This module
scores each periodicity against the i.i.d. null model:

under random placement, the probability that one adjacent projection
pair repeats symbol ``s`` is ``q = f_s**2`` with ``f_s`` the symbol's
empirical frequency, so ``F2 ~ Binomial(pairs, q)`` and the periodicity's
p-value is the binomial upper tail ``P[X >= F2]``.

The binomial tail is computed in log space from scratch (no scipy
dependency); the test suite cross-checks it against ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.periodicity import PeriodicityTable, SymbolPeriodicity
from ..core.sequence import SymbolSequence

__all__ = [
    "binomial_tail",
    "ScoredPeriodicity",
    "score_periodicities",
    "significant_periods",
]


def binomial_tail(successes: int, trials: int, probability: float) -> float:
    """Upper-tail probability ``P[X >= successes]``, ``X ~ Bin(trials, p)``.

    Exact summation from the log of the tail's largest term; numerically
    safe for the table sizes the miner produces (``trials <= n``).
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if successes <= 0:
        return 1.0
    if successes > trials:
        return 0.0
    if probability == 0.0:
        return 0.0
    if probability == 1.0:
        return 1.0
    # Sum the tail on the far side of the mode, whose terms shrink away
    # from the first: P[X >= successes] above the mode, else one minus
    # P[X <= successes - 1].  Sum them relative to the first, keeping its
    # log, so a first term that underflows loses nothing, and stop once
    # the rest cannot matter.
    upper = successes > math.floor((trials + 1) * probability)
    k = successes if upper else successes - 1
    log_first = (
        math.lgamma(trials + 1)
        - math.lgamma(k + 1)
        - math.lgamma(trials - k + 1)
        + k * math.log(probability)
        + (trials - k) * math.log1p(-probability)
    )
    # Each step away multiplies the term by (top - i) / (bottom + i) * rate.
    top, bottom = (trials - k, k + 1) if upper else (k, trials - k + 1)
    rate = probability / (1.0 - probability)
    rate = rate if upper else 1 / rate
    term = total = 1.0
    for i in range(top):
        term *= (top - i) / (bottom + i) * rate
        total += term
        if term < total * 1e-17:
            break
    tail = math.exp(log_first + math.log(total))
    return min(tail, 1.0) if upper else max(1.0 - tail, 0.0)


@dataclass(frozen=True, slots=True)
class ScoredPeriodicity:
    """A symbol periodicity with its null-model p-value."""

    periodicity: SymbolPeriodicity
    symbol_frequency: float
    p_value: float


def score_periodicities(
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    min_pairs: int = 1,
) -> list[ScoredPeriodicity]:
    """Attach binomial p-values to every periodicity at ``psi``.

    Sorted most-significant first; ties broken by period ascending so
    the informative base periods lead their multiples.
    """
    n = series.length
    if n == 0:
        return []
    frequencies = np.bincount(series.codes, minlength=series.sigma) / n
    scored = []
    for hit in table.periodicities(psi, min_pairs=min_pairs):
        frequency = float(frequencies[hit.symbol_code])
        p_value = binomial_tail(hit.f2, hit.pairs, frequency * frequency)
        scored.append(
            ScoredPeriodicity(
                periodicity=hit, symbol_frequency=frequency, p_value=p_value
            )
        )
    scored.sort(key=lambda s: (s.p_value, s.periodicity.period))
    return scored


def significant_periods(
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    alpha: float = 1e-3,
    min_pairs: int = 1,
) -> list[int]:
    """Distinct periods with at least one periodicity below ``alpha``.

    A Bonferroni-style correction is applied for the number of
    periodicities tested, so the trivial near-``n/2`` certainties (two
    pairs, frequent symbol) drop out while the structural periods stay.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    scored = score_periodicities(series, table, psi, min_pairs=min_pairs)
    if not scored:
        return []
    corrected = alpha / len(scored)
    return sorted(
        {s.periodicity.period for s in scored if s.p_value <= corrected}
    )
