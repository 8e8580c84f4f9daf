"""Mining results and the top-level mining facade.

:func:`mine` is the library's front door: it runs either miner over a
series, applies the periodicity threshold, and mines all candidate
patterns — the complete pipeline of the paper's Fig. 2 in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

from .alphabet import Alphabet
from .candidates import check_max_arity, mine_patterns, single_symbol_patterns
from .convolution_miner import ENGINES, ConvolutionMiner
from .patterns import PeriodicPattern
from .periodicity import PeriodicityTable, SymbolPeriodicity
from .projection import resolve_max_period
from .sequence import SymbolSequence, whole
from .spectral_miner import SpectralMiner

__all__ = ["ALGORITHMS", "MiningResult", "check_mine_options", "mine"]

Algorithm = Literal["spectral", "convolution"]

#: the table builders :func:`mine` accepts, in the CLI's choice order
#: (read off the ``Algorithm`` alias, so the two cannot drift).
ALGORITHMS: tuple[Algorithm, ...] = get_args(Algorithm)


@dataclass(frozen=True, slots=True)
class MiningResult:
    """Everything one mining run produces.

    Attributes
    ----------
    psi:
        The periodicity threshold the run used.
    table:
        The ``F2`` evidence table the run mined.  The default spectral
        build keeps only the cells that can reach ``psi``, so it answers
        any threshold ``>= psi``; for lower thresholds re-mine, or pass
        a full table (``algorithm="convolution"`` or
        ``SpectralMiner(psi=None)``) as ``table=``.
    periodicities:
        Symbol periodicities meeting ``psi`` (Definition 1).
    single_patterns:
        The corresponding single-symbol patterns (Definition 2).
    patterns:
        All candidate patterns with support ``>= psi``, including the
        single-symbol ones (Definition 3), in ``(period, arity, items)``
        order.
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


def check_mine_options(
    psi: float,
    max_arity: int | None = None,
    workers: int | None = None,
    algorithm: str = "spectral",
    engine: str = "bitand",
) -> None:
    """Reject any option :func:`mine` and the pipeline share that is invalid.

    ``psi`` outside ``(0, 1]``, ``max_arity < 1``, ``workers < 1`` (or
    either not an integer), or an unknown ``algorithm`` or ``engine`` —
    checked before any work, even the options the chosen algorithm
    ignores.  Each error names its argument.
    """
    if not 0 < psi <= 1:
        raise ValueError(f"psi must be in (0, 1], got {psi!r}")
    check_max_arity(max_arity)
    if workers is not None and whole("workers", workers) < 1:
        raise ValueError("workers must be >= 1")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")


def mine(
    series: SymbolSequence,
    psi: float,
    algorithm: Algorithm = "spectral",
    max_period: int | None = None,
    periods: list[int] | None = None,
    max_arity: int | None = None,
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
        Mine patterns only at these periods, each in
        ``1 .. max_period`` (the evidence table still covers all
        periods up to ``max_period``).
    max_arity:
        Cap on fixed positions per pattern, ``>= 1`` (``None``: no cap).
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
    check_mine_options(psi, max_arity, workers, algorithm, engine)
    limit = resolve_max_period(series.length, max_period)
    for period in periods or ():
        if not 1 <= whole("periods entry", period) <= limit:
            raise ValueError(
                f"periods entry {period} is outside 1..{limit} (max_period)"
            )
    if table is not None:
        pass
    elif algorithm == "spectral":
        table = SpectralMiner(
            psi=psi, max_period=max_period, workers=workers
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
