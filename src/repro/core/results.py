"""Mining results and the top-level mining facade.

:func:`mine` is the library's front door: it runs either miner over a
series, applies the periodicity threshold, and mines all candidate
patterns — the complete pipeline of the paper's Fig. 2 in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .alphabet import Alphabet
from .candidates import mine_patterns, single_symbol_patterns
from .convolution_miner import ENGINES, ConvolutionMiner
from .patterns import PeriodicPattern
from .periodicity import PeriodicityTable, SymbolPeriodicity
from .sequence import SymbolSequence
from .spectral_miner import SpectralMiner

__all__ = ["ALGORITHMS", "MiningResult", "check_mine_options", "mine"]

Algorithm = Literal["spectral", "convolution"]

#: the table builders :func:`mine` accepts, in the CLI's choice order.
ALGORITHMS: tuple[Algorithm, ...] = ("spectral", "convolution")


@dataclass(frozen=True, slots=True)
class MiningResult:
    """Everything one mining run produces.

    Attributes
    ----------
    psi:
        The periodicity threshold the run used.
    table:
        The full ``F2`` evidence table (inspect for other thresholds —
        lower thresholds need a re-mine only if the spectral pruning was
        enabled above them).
    periodicities:
        Symbol periodicities meeting ``psi`` (Definition 1).
    single_patterns:
        The corresponding single-symbol patterns (Definition 2).
    patterns:
        All candidate patterns with support ``>= psi``, including the
        single-symbol ones (Definition 3).
    """

    psi: float
    table: PeriodicityTable
    periodicities: tuple[SymbolPeriodicity, ...]
    single_patterns: tuple[PeriodicPattern, ...]
    patterns: tuple[PeriodicPattern, ...]

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the mined series."""
        return self.table.alphabet

    @property
    def candidate_periods(self) -> tuple[int, ...]:
        """Periods with at least one periodicity at ``psi``, ascending."""
        return tuple(sorted({h.period for h in self.periodicities}))

    def patterns_for(self, period: int) -> tuple[PeriodicPattern, ...]:
        """The mined patterns of one period."""
        return tuple(p for p in self.patterns if p.period == period)

    def confidence(self, period: int) -> float:
        """Best support of any symbol periodicity at ``period``."""
        return self.table.confidence(period)

    def render(self, limit: int | None = 20) -> str:
        """Human-readable summary (top patterns by support)."""
        ranked = sorted(self.patterns, key=lambda p: -p.support)
        if limit is not None:
            ranked = ranked[:limit]
        periods = list(self.candidate_periods)
        shown = periods if len(periods) <= 12 else periods[:12]
        suffix = "" if len(periods) <= 12 else f" ... (+{len(periods) - 12} more)"
        lines = [f"psi={self.psi:.2f}  periods={shown}{suffix}"]
        for pat in ranked:
            lines.append(
                f"  p={pat.period:<5} {pat.to_string(self.alphabet):<24} "
                f"support={pat.support:.3f}"
            )
        return "\n".join(lines)


def check_mine_options(algorithm: str, engine: str, workers: int | None) -> None:
    """Reject an unknown ``algorithm`` or ``engine``, or ``workers < 1``.

    The options :func:`mine` and the pipeline accept, checked before any
    work — even the ones the chosen algorithm ignores.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")


def mine(
    series: SymbolSequence,
    psi: float,
    algorithm: Algorithm = "spectral",
    max_period: int | None = None,
    periods: list[int] | None = None,
    max_arity: int | None = None,
    prune: bool = True,
    engine: str = "bitand",
    workers: int | None = None,
    table: PeriodicityTable | None = None,
) -> MiningResult:
    """Mine all obscure periodic patterns of a series.

    Parameters
    ----------
    series:
        The symbol time series.
    psi:
        Periodicity threshold in ``(0, 1]``.
    algorithm:
        ``"spectral"`` (threaded count kernel plus the ``psi`` bound,
        default) or ``"convolution"`` (the paper's exact algorithm,
        engine chosen by ``engine``).
    max_period:
        Largest period to analyse; defaults to ``n // 2``.
    periods:
        Mine patterns only at these periods (the evidence table still
        covers all periods up to ``max_period``).
    max_arity:
        Cap on fixed positions per pattern.
    prune:
        Let the spectral miner drop evidence that cannot reach ``psi``
        (a smaller table that then only supports thresholds
        ``>= psi``).  Ignored by the convolution algorithm, which is
        always exact.
    engine:
        Exact-engine choice for ``algorithm="convolution"``
        (``"bitand"``, ``"kronecker"``, or ``"parallel"``); ignored by
        the spectral miner.
    workers:
        Thread cap of the count kernel (default: CPU count): the
        spectral miner's table build, or ``engine="parallel"``.
    table:
        A :class:`PeriodicityTable` already mined from ``series`` —
        skips the mining pass entirely and re-derives periodicities and
        patterns from it (how the pipeline reuses its stage-1 scouting
        evidence instead of mining the series twice).

    Examples
    --------
    >>> T = SymbolSequence.from_string("abcabbabcb")
    >>> result = mine(T, psi=2 / 3)
    >>> sorted(p.to_string(result.alphabet) for p in result.patterns_for(3))
    ['*b*', 'a**', 'ab*']
    """
    check_mine_options(algorithm, engine, workers)
    if table is not None:
        pass
    elif algorithm == "spectral":
        table = SpectralMiner(
            psi=psi if prune else None, max_period=max_period, workers=workers
        ).periodicity_table(series)
    else:
        table = ConvolutionMiner(
            engine=engine, max_period=max_period, workers=workers
        ).periodicity_table(series)
    periodicities = tuple(table.periodicities(psi))
    singles = tuple(single_symbol_patterns(table, psi))
    patterns = tuple(
        mine_patterns(series, table, psi, periods=periods, max_arity=max_arity)
    )
    return MiningResult(
        psi=psi,
        table=table,
        periodicities=periodicities,
        single_patterns=singles,
        patterns=patterns,
    )
