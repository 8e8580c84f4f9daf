"""The paper's one-pass convolution miner (Fig. 2), exactly.

Pipeline (Sect. 3):

1. map the series to the 0/1 vector ``T'`` (one ``sigma``-bit block per
   symbol, :mod:`repro.core.mapping`);
2. compute the modified convolution
   ``(x (*) y)_i = sum_j 2**j x_j y_{i-j}`` of ``reverse(T')`` with
   ``T'`` — exactly, because every match contributes one distinct power
   of two that must survive into the output;
3. read the witness set ``W_p`` out of the component for every
   symbol-shift ``p = 1 .. n/2`` and split it into the
   ``W_{p,k,l}`` sets, whose cardinalities are the
   ``F2(s_k, pi_{p,l}(T))`` counts of Definition 1.

Three exact engines compute the witness sets:

``"kronecker"``
    One big-integer multiplication evaluates the whole convolution at
    once (Kronecker substitution) — the literal "one convolution" of the
    paper, with Python's sub-quadratic big-int product standing in for
    the exact FFT.  The product holds ``Theta((sigma n)**2)`` bits, so
    this engine is for small-to-moderate series.

``"bitand"`` (default)
    Evaluates each component lazily.  Because the inputs are 0/1 and the
    weights are ``2**j``, the component for bit-shift ``sigma p`` of the
    reversed convolution is literally ``X & (X >> sigma p)`` where ``X``
    is ``T'`` read as one big binary number (most-significant bit =
    position 0).  Each AND is one machine-speed pass over ``sigma n``
    bits; all components follow from the same single mapping of the
    data, read once.

``"parallel"``
    The set bits of ``X & (X >> sigma p)`` are exactly the positions
    ``j`` with ``t_j = t_{j+p}``, so this engine reads them off one
    shifted compare of the codes per period, mapped over the period
    range on a thread pool (:func:`repro.core.projection.map_periods`;
    ``workers=`` caps it, and an exception for any period propagates
    unchanged).  Its tables skip the witness powers: one ``bincount``
    of the matches per period (:func:`repro.core.projection.f2_keys`).

All engines produce bit-for-bit identical witness sets (property-tested
against each other and against the quadratic reference); ``bitand`` and
``kronecker`` are the paper-faithful references.  Every engine's tables
take one path: each period's non-zero ``F2`` keys and counts — decoded
from the witness sets by one ``bincount``
(:func:`repro.core.mapping.witness_keys`), or counted directly by the
``"parallel"`` engine — become the table's columns.  For large series
where only the counts matter, use ``"parallel"`` or
:class:`repro.core.spectral_miner.SpectralMiner`, which runs the same
counting kernel and pool and drops the cells that cannot reach ``psi``
by a bound read off those counts.
"""

from __future__ import annotations

from typing import Literal, get_args

import numpy as np

from ..convolution.bigint import (
    bit_positions,
    pack_bits,
    weighted_convolution_witnesses,
)
from .mapping import (
    binary_vector,
    binary_vector_bits,
    period_witnesses,
    witness_keys,
)
from .periodicity import PeriodicityTable
from .projection import (
    f2_keys,
    f2_table_from_keys,
    map_periods,
    narrow_codes,
    resolve_max_period,
)
from .sequence import SymbolSequence, whole

__all__ = ["ConvolutionMiner", "Engine", "ENGINES"]

Engine = Literal["bitand", "kronecker", "parallel"]

#: the engine registry, read off the ``Engine`` alias so the two cannot
#: drift; the CLI's ``--engine`` choices are this tuple, and
#: ``tests/test_invariants.py`` checks the docs against it.
ENGINES: tuple[Engine, ...] = get_args(Engine)

# Not called anywhere: perfbench/tracing.py wraps this module's
# ``pack_positions`` by name (``vars(module)[name]``) as its ``pack``
# span, so the name must keep resolving here.
pack_positions = pack_bits

#: Kronecker products hold (sigma*n)**2 bits; past this the engine would
#: allocate gigabytes, so it refuses and points at the lazy engines.
_KRONECKER_MAX_BITS = 30_000


class ConvolutionMiner:
    """Exact miner implementing the paper's algorithm verbatim.

    Parameters
    ----------
    engine:
        ``"bitand"`` (default), ``"kronecker"``, or ``"parallel"`` —
        see the module docstring.  Outputs are identical.
    max_period:
        Largest period to analyse; defaults to ``n // 2`` per the paper's
        Fig. 2 loop.
    workers:
        Worker cap for the ``"parallel"`` engine (default: CPU count);
        ignored by the serial engines.
    """

    def __init__(
        self,
        engine: Engine = "bitand",
        max_period: int | None = None,
        workers: int | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if workers is not None and whole("workers", workers) < 1:
            raise ValueError("workers must be >= 1")
        self._engine = engine
        self._max_period = max_period
        self._workers = workers

    # -- public API ------------------------------------------------------------

    def witness_sets(self, series: SymbolSequence) -> dict[int, np.ndarray]:
        """The raw witness sets ``W_p`` for every period ``p``.

        Returns a mapping ``period -> ascending array of powers w`` with
        ``2**w`` present in the convolution component of that period.
        Periods with empty witness sets are omitted.
        """
        max_period = resolve_max_period(series.length, self._max_period)
        if max_period < 1:
            return {}
        if self._engine == "kronecker":
            witnesses = self._kronecker_witnesses(series, max_period)
        elif self._engine == "parallel":
            witnesses = self._parallel_witnesses(series, max_period)
        else:
            witnesses = self._bitand_witnesses(series, max_period)
        return {p: w for p, w in witnesses.items() if w.size}

    def f2_tables(
        self, series: SymbolSequence
    ) -> dict[int, dict[tuple[int, int], int]]:
        """The per-period ``F2`` tables ``{(symbol, position): count}``."""
        return {
            p: f2_table_from_keys(keys, counts, p)
            for p, (keys, counts) in self._period_keys(series).items()
            if keys.size
        }

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the full ``F2`` evidence table of the series."""
        return PeriodicityTable.from_period_keys(
            series.length, series.alphabet, self._period_keys(series)
        )

    @property
    def fault_events(self) -> tuple[()]:
        """Always the empty tuple: no engine retries or falls back.

        Kept for compatibility only: ``perfbench/tracing.py`` reads it
        (``len(miner.fault_events)``), and the benchmark harness is
        changed only on its own.
        """
        return ()

    # -- engines ---------------------------------------------------------------

    def _period_keys(
        self, series: SymbolSequence
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Every period's non-zero ``F2`` keys and counts.

        The ``"parallel"`` engine counts them without witness powers;
        the others decode their witness sets.
        """
        n, sigma = series.length, series.sigma
        if self._engine == "parallel":
            max_period = resolve_max_period(n, self._max_period)
            return f2_keys(series.codes, sigma, max_period, self._workers)
        return {
            p: witness_keys(w, n, sigma, p)
            for p, w in self.witness_sets(series).items()
        }

    def _bitand_witnesses(
        self, series: SymbolSequence, max_period: int
    ) -> dict[int, np.ndarray]:
        sigma = series.sigma
        total = sigma * series.length
        # Bit e of X must be x[total - 1 - e]: the series' binary vector
        # read as a number whose most significant bit is position 0.
        big_x = pack_bits(total - 1 - binary_vector_bits(series), total)
        out: dict[int, np.ndarray] = {}
        for p in range(1, max_period + 1):
            component = big_x & (big_x >> (sigma * p))
            out[p] = bit_positions(component)
        return out

    def _parallel_witnesses(
        self, series: SymbolSequence, max_period: int
    ) -> dict[int, np.ndarray]:
        sigma = series.sigma
        codes = narrow_codes(series.codes, sigma)
        witnesses = map_periods(
            lambda p: period_witnesses(codes, sigma, p), max_period, self._workers
        )
        return dict(zip(range(1, max_period + 1), witnesses))

    def _kronecker_witnesses(
        self, series: SymbolSequence, max_period: int
    ) -> dict[int, np.ndarray]:
        vector = binary_vector(series)
        total = vector.size
        if total > _KRONECKER_MAX_BITS:
            raise ValueError(
                f"kronecker engine refuses sigma*n = {total:,} "
                f"(limit {_KRONECKER_MAX_BITS:,}): the product would hold "
                f"about {total * total:,} bits; use engine='bitand' or "
                "'parallel', or the SpectralMiner"
            )
        components = weighted_convolution_witnesses(vector[::-1], vector)
        sigma = series.sigma
        out: dict[int, np.ndarray] = {}
        for p in range(1, max_period + 1):
            # Reversing the convolution output maps component i to
            # total - 1 - i; the symbol-shift-p component sits at bit
            # offset sigma * p of the reversed sequence.
            out[p] = components[total - 1 - sigma * p]
        return out
