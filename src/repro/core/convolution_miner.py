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
    shifted compare of the codes (:mod:`repro.core.projection`) and
    shards the period range across a worker pool
    (:mod:`repro.parallel`).  ``periodicity_table`` takes a
    **count-only fast path**: one ``bincount`` of the matches per
    ``(symbol, position)`` per period, no witness powers; the
    workers return each period's non-zero keys and counts as arrays,
    which become the table's columns directly.  The
    ``workers=`` knob caps the thread pool; an exception raised in a
    shard propagates unchanged.

All engines produce bit-for-bit identical witness sets (property-tested
against each other and against the quadratic reference); ``bitand`` and
``kronecker`` are the paper-faithful references.  For large series
where only the counts matter, use ``"parallel"`` or
:class:`repro.core.spectral_miner.SpectralMiner`, which runs the same
counting kernel and pool and drops the cells that cannot reach ``psi``
by a bound read off those counts.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..convolution.bigint import (
    bit_positions,
    pack_bits,
    weighted_convolution_witnesses,
)
# Not called here: perfbench/tracing.py wraps this module's
# ``pack_positions`` by name (``vars(module)[name]``), so the name must
# keep resolving in this module's namespace.
from ..convolution.bitops import pack_positions  # noqa: F401
from ..parallel import ParallelWitnessEngine
from .mapping import binary_vector, binary_vector_bits, witnesses_to_f2_table
from .periodicity import PeriodicityTable
from .projection import f2_table_from_keys
from .sequence import SymbolSequence

__all__ = ["ConvolutionMiner", "Engine", "ENGINES"]

Engine = Literal["bitand", "kronecker", "parallel"]

#: the engine registry — the single source of truth the CLI choices,
#: the ``Engine`` alias, docs, and tests are all checked against
#: (lint rule RL004).
ENGINES: tuple[Engine, ...] = ("bitand", "kronecker", "parallel")

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
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self._engine = engine
        self._max_period = max_period
        self._workers = workers
        self._parallel: ParallelWitnessEngine | None = (
            ParallelWitnessEngine(workers=workers)
            if engine == "parallel"
            else None
        )

    # -- public API ------------------------------------------------------------

    def witness_sets(self, series: SymbolSequence) -> dict[int, np.ndarray]:
        """The raw witness sets ``W_p`` for every period ``p``.

        Returns a mapping ``period -> ascending array of powers w`` with
        ``2**w`` present in the convolution component of that period.
        Periods with empty witness sets are omitted.
        """
        n = series.length
        max_period = self._resolve_max_period(n)
        if n < 2 or max_period < 1:
            return {}
        if self._engine == "kronecker":
            witnesses = self._kronecker_witnesses(series, max_period)
        elif self._engine == "parallel":
            witnesses = self._parallel_engine().witness_sets(
                series.codes, series.sigma, max_period
            )
        else:
            witnesses = self._bitand_witnesses(series, max_period)
        return {p: w for p, w in witnesses.items() if w.size}

    def f2_tables(
        self, series: SymbolSequence
    ) -> dict[int, dict[tuple[int, int], int]]:
        """The per-period ``F2`` tables ``{(symbol, position): count}``.

        The ``"parallel"`` engine serves this from its count-only fast
        path — one ``bincount`` of the matches per period, no witness
        powers; the serial engines decode witness sets and group them.
        Results are identical.
        """
        if self._engine == "parallel":
            return {
                p: f2_table_from_keys(keys, counts, p)
                for p, (keys, counts) in self._parallel_keys(series).items()
                if keys.size
            }
        n = series.length
        return {
            p: witnesses_to_f2_table(w, n, series.sigma, p)
            for p, w in self.witness_sets(series).items()
        }

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the full ``F2`` evidence table of the series.

        The ``"parallel"`` engine's key arrays become the table's
        columns directly; the serial engines go through
        :meth:`f2_tables`.
        """
        if self._engine == "parallel":
            return PeriodicityTable.from_period_keys(
                series.length, series.alphabet, self._parallel_keys(series)
            )
        return PeriodicityTable(
            series.length, series.alphabet, self.f2_tables(series)
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

    def _resolve_max_period(self, n: int) -> int:
        max_period = n // 2 if self._max_period is None else self._max_period
        if self._max_period is not None and self._max_period < 1:
            raise ValueError("max_period must be >= 1")
        return min(max_period, n - 1) if n > 1 else 0

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

    def _parallel_engine(self) -> ParallelWitnessEngine:
        assert self._parallel is not None  # guarded by engine == "parallel"
        return self._parallel

    def _parallel_keys(
        self, series: SymbolSequence
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Every period's non-zero ``F2`` keys and counts (``"parallel"``)."""
        n = series.length
        max_period = self._resolve_max_period(n)
        if n < 2 or max_period < 1:
            return {}
        return self._parallel_engine().f2_keys(
            series.codes, series.sigma, max_period
        )

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
