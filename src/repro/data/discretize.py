"""Discretizing numeric feature values into nominal symbol levels.

Sect. 2.1 of the paper assumes the time series has been discretized into
nominal levels ("high, medium, low"), and its real-data experiments use
five levels with domain-specific thresholds.  The paper treats the
choice of discretizer as orthogonal; this module supplies the standard
options so numeric series can be fed to the miners:

* :class:`ThresholdDiscretizer` — explicit breakpoints (the paper's
  domain-expert scheme, e.g. "very low < 6000 Watts/Day");
* :class:`EqualWidthDiscretizer` — equal-width bins over the data range;
* :class:`QuantileDiscretizer` — equal-frequency bins;
* :class:`GaussianDiscretizer` — equiprobable bins under a normal fit
  (the SAX-style breakpoints).
"""

from __future__ import annotations

from collections.abc import Sequence
from statistics import NormalDist

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import SymbolSequence

__all__ = [
    "Discretizer",
    "ThresholdDiscretizer",
    "EqualWidthDiscretizer",
    "QuantileDiscretizer",
    "GaussianDiscretizer",
    "FIVE_LEVELS",
]

#: The paper's five nominal levels, in ascending order.
FIVE_LEVELS = ("a", "b", "c", "d", "e")  # very low, low, medium, high, very high


class Discretizer:
    """Base class: maps numeric values to symbol codes via breakpoints.

    Subclasses provide breakpoints; value ``v`` maps to the number of
    breakpoints ``<= v`` (so ``k`` breakpoints produce ``k + 1`` levels).
    """

    def __init__(self, levels: Sequence[str] | int = FIVE_LEVELS):
        if isinstance(levels, int):
            alphabet = Alphabet.of_size(levels)
        else:
            alphabet = Alphabet(levels)
        self._alphabet = alphabet

    @property
    def alphabet(self) -> Alphabet:
        """The level alphabet, ascending."""
        return self._alphabet

    def breakpoints(self, values: np.ndarray) -> np.ndarray:
        """Ascending breakpoints separating the levels (len = levels-1)."""
        raise NotImplementedError

    def codes(self, values: Sequence[float] | np.ndarray) -> np.ndarray:
        """Discretize to integer level codes."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if values.size == 0:
            raise ValueError("cannot discretize an empty series")
        breaks = np.asarray(self.breakpoints(values), dtype=np.float64)
        if breaks.size != len(self._alphabet) - 1:
            raise ValueError(
                f"{breaks.size} breakpoints cannot produce "
                f"{len(self._alphabet)} levels"
            )
        if np.any(np.diff(breaks) < 0):
            raise ValueError("breakpoints must be ascending")
        return np.searchsorted(breaks, values, side="right").astype(np.int64)

    def discretize(self, values: Sequence[float] | np.ndarray) -> SymbolSequence:
        """Discretize to a :class:`SymbolSequence` over the level alphabet."""
        return SymbolSequence.from_codes(self.codes(values), self._alphabet)


class ThresholdDiscretizer(Discretizer):
    """Explicit domain thresholds (the paper's expert-driven scheme).

    ``thresholds[i]`` is the smallest value mapped to level ``i + 1``;
    e.g. for CIMEG: ``[6000, 8000, 10000, 12000]`` — very low is
    "less than 6000 Watts/Day, and each level has a 2000 Watts range".
    """

    def __init__(
        self,
        thresholds: Sequence[float],
        levels: Sequence[str] | int = FIVE_LEVELS,
    ):
        super().__init__(levels)
        self._thresholds = np.asarray(thresholds, dtype=np.float64)
        if self._thresholds.size != len(self.alphabet) - 1:
            raise ValueError(
                f"{self._thresholds.size} thresholds cannot produce "
                f"{len(self.alphabet)} levels"
            )
        if np.any(np.diff(self._thresholds) < 0):
            raise ValueError("thresholds must be ascending")

    def breakpoints(self, values: np.ndarray) -> np.ndarray:
        return self._thresholds


class EqualWidthDiscretizer(Discretizer):
    """Equal-width bins spanning ``[min, max]`` of the data."""

    def breakpoints(self, values: np.ndarray) -> np.ndarray:
        lo, hi = float(values.min()), float(values.max())
        k = len(self.alphabet)
        if lo == hi:
            return np.full(k - 1, lo)
        return lo + (hi - lo) * np.arange(1, k) / k


class QuantileDiscretizer(Discretizer):
    """Equal-frequency bins (quantile breakpoints)."""

    def breakpoints(self, values: np.ndarray) -> np.ndarray:
        k = len(self.alphabet)
        return np.quantile(values, np.arange(1, k) / k)


class GaussianDiscretizer(Discretizer):
    """Equiprobable bins under a normal fit of the data (SAX breakpoints)."""

    def breakpoints(self, values: np.ndarray) -> np.ndarray:
        k = len(self.alphabet)
        mean = float(values.mean())
        std = float(values.std())
        if std == 0.0:
            return np.full(k - 1, mean)
        normal = NormalDist()
        return mean + std * np.array([normal.inv_cdf(i / k) for i in range(1, k)])
