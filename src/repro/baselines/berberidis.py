"""The Berberidis et al. multi-pass baseline ([6], ECAI 2002).

Candidate-period detection "regarding the symbols of the time series,
one symbol at a time": for each symbol, the linear (zero-padded)
autocorrelation of its 0/1 indicator vector is scanned for lags whose
value stands out above the level expected of a random series.  The output is a set of
candidate periods per symbol — to obtain actual periodic *patterns*, a
pattern-mining pass per candidate period must follow (e.g.
:class:`repro.baselines.han_partial.HanPartialMiner`), which is exactly
the multi-pass structure the paper contrasts its one-pass miner with.
:func:`multi_pass_pipeline` wires the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..convolution.fft import correlate_fft
from ..core.patterns import PeriodicPattern
from ..core.projection import resolve_max_period
from ..core.sequence import SymbolSequence
from .han_partial import HanPartialMiner

__all__ = ["SymbolPeriodHint", "Berberidis", "multi_pass_pipeline"]


@dataclass(frozen=True, slots=True)
class SymbolPeriodHint:
    """A candidate period for one symbol with its autocorrelation score.

    ``score`` is the exact match count ``M_k(p)`` of the symbol at the
    period.
    """

    symbol_code: int
    period: int
    score: int


class Berberidis:
    """Per-symbol autocorrelation period detection.

    Parameters
    ----------
    strength:
        Detection threshold as a multiple of the random-series
        expectation: lag ``p`` is a candidate for symbol ``k`` when its
        autocorrelation exceeds ``strength * occurrences(k)^2 / n``
        (the expected value for randomly placed occurrences).
    max_period:
        Largest lag scanned; defaults to ``n // 2``.
    """

    def __init__(self, strength: float = 2.0, max_period: int | None = None):
        if strength <= 1.0:
            raise ValueError("strength must exceed 1 (the random baseline)")
        self._strength = strength
        self._max_period = max_period

    def hints_for_symbol(
        self, series: SymbolSequence, symbol_code: int
    ) -> list[SymbolPeriodHint]:
        """Candidate periods for one symbol, strongest first."""
        if not 0 <= symbol_code < series.sigma:
            raise ValueError(
                f"symbol_code {symbol_code} is outside 0..{series.sigma - 1}"
            )
        n = series.length
        max_period = resolve_max_period(n, self._max_period)
        indicator = series.indicator(symbol_code)
        occurrences = float(indicator.sum())
        if occurrences < 2 or max_period < 1:
            return []
        counts = np.rint(correlate_fft(indicator, None, max_period))
        expected = occurrences * occurrences / n
        periods = np.flatnonzero(counts[1:] > self._strength * expected) + 1
        out = [
            SymbolPeriodHint(int(symbol_code), int(p), int(counts[p]))
            for p in periods
        ]
        out.sort(key=lambda h: -h.score)
        return out

    def candidate_periods(self, series: SymbolSequence) -> list[int]:
        """Distinct candidate periods over all symbols, ascending.

        One full pass over the series per symbol — the multi-pass
        behaviour the EDBT paper criticises.
        """
        periods: set[int] = set()
        for k in range(series.sigma):
            periods.update(h.period for h in self.hints_for_symbol(series, k))
        return sorted(periods)


def multi_pass_pipeline(
    series: SymbolSequence,
    psi: float,
    detector: Berberidis | None = None,
    max_patterns_per_period: int | None = None,
) -> dict[int, list[PeriodicPattern]]:
    """Detector + per-period pattern miner: the full multi-pass pipeline.

    Pass 1..sigma: :class:`Berberidis` finds candidate periods.  Then
    one additional :class:`HanPartialMiner` pass *per candidate period*
    mines the patterns.  Returns ``{period: patterns}``.
    """
    detector = Berberidis() if detector is None else detector
    miner = HanPartialMiner(min_confidence=psi)
    out: dict[int, list[PeriodicPattern]] = {}
    for period in detector.candidate_periods(series):
        patterns = miner.mine(series, period)
        if max_patterns_per_period is not None:
            patterns = patterns[:max_patterns_per_period]
        if patterns:
            out[period] = patterns
    return out
