"""Shared workload definitions for the reproduction experiments.

The paper's synthetic study fixes four configurations — the cross of
{uniform, normal} distributions with embedded periods {25, 32} — on
series of 1M symbols over a 10-symbol alphabet, averaged over 100 runs.
Those scales target a 2004 server; the defaults here (50k symbols, a
handful of runs) finish in seconds on a laptop while preserving every
qualitative conclusion, and all knobs are exposed for full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.sequence import SymbolSequence
from ..data.noise import apply_noise
from ..data.synthetic import generate_periodic

__all__ = ["SyntheticConfig", "PAPER_CONFIGS", "DEFAULT_LENGTH", "DEFAULT_SIGMA"]

#: Default synthetic series length (the paper uses 1_000_000).
DEFAULT_LENGTH = 50_000

#: Alphabet size used throughout the synthetic study.
DEFAULT_SIGMA = 10


@dataclass(frozen=True, slots=True)
class SyntheticConfig:
    """One synthetic workload configuration of the paper's study."""

    distribution: str
    period: int
    length: int = DEFAULT_LENGTH
    sigma: int = DEFAULT_SIGMA

    @property
    def label(self) -> str:
        """Legend label as printed in the paper, e.g. ``"U, P=25"``."""
        return f"{self.distribution[0].upper()}, P={self.period}"

    def multiples(self, count: int) -> list[int]:
        """The periods ``P, 2P, ..., count*P`` (the figures' x axis)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.periods_for(range(1, count + 1))

    def periods_for(self, multiples) -> list[int]:
        """The periods ``m*P`` for given multiples, capped at ``n // 2``."""
        upper = self.length // 2
        periods = []
        for m in multiples:
            if m < 1:
                raise ValueError("multiples must be >= 1")
            if m * self.period <= upper:
                periods.append(m * self.period)
        if not periods:
            raise ValueError("no requested multiple fits below n/2")
        return periods

    def make_series(
        self,
        rng: np.random.Generator,
        noise_ratio: float = 0.0,
        noise_kinds: str = "R",
    ) -> SymbolSequence:
        """Generate one (optionally noisy) series of this configuration."""
        series = generate_periodic(
            self.length, self.period, self.sigma, self.distribution, rng
        )
        if noise_ratio > 0.0:
            series = apply_noise(series, noise_ratio, noise_kinds, rng)
        return series


#: The paper's four synthetic configurations.
PAPER_CONFIGS = (
    SyntheticConfig("uniform", 25),
    SyntheticConfig("normal", 25),
    SyntheticConfig("uniform", 32),
    SyntheticConfig("normal", 32),
)


def _paper_configs(length: int | None) -> tuple[SyntheticConfig, ...]:
    """:data:`PAPER_CONFIGS` at series length ``length`` (``None`` keeps theirs)."""
    if length is None:
        return PAPER_CONFIGS
    return tuple(replace(c, length=length) for c in PAPER_CONFIGS)
