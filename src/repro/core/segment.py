"""Segment periodicity: whole-period repetition scores.

The paper defines periodicity symbol by symbol (Definition 1).  Its
companion line of work (the authors' periodicity-detection follow-up)
also scores *segment periodicity* — how strongly the series repeats as a
whole at shift ``p``, regardless of which symbol matches where:

    segment_support(p) = |{ j : t_j = t_{j+p} }| / (n - p)

This drops out of the very same convolution the miner already runs —
``sum_k M_k(p)`` over the per-symbol match counts — so it costs nothing
extra and makes a convenient first-pass period screen: symbol
periodicities always imply segment evidence, never the other way
around.
"""

from __future__ import annotations

import numpy as np

from .sequence import SymbolSequence
from .spectral_miner import SpectralMiner

__all__ = ["segment_supports"]


def segment_supports(
    series: SymbolSequence, max_period: int | None = None
) -> np.ndarray:
    """``segment_support(p)`` for every shift ``0..max_period``.

    Entry 0 is 1.0 by convention (a series trivially matches itself).
    One batched FFT autocorrelation of the symbol indicators computes
    all shifts.
    """
    n = series.length
    if n < 2:
        return np.ones(1)
    miner = SpectralMiner(max_period=max_period)
    counts = miner.match_counts(series)
    max_p = counts.shape[1] - 1
    totals = counts.sum(axis=0).astype(np.float64)
    aligned = n - np.arange(max_p + 1, dtype=np.float64)
    supports = np.divide(totals, aligned, out=np.zeros(max_p + 1), where=aligned > 0)
    supports[0] = 1.0
    return supports
