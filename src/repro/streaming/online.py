"""Online (incremental) periodicity mining over a growing stream.

The paper targets environments "(e.g., data streams)" that cannot abide
multiple passes; its own reference [4] extends the authors' work to
incremental and online mining.  This module provides that extension: an
:class:`OnlineMiner` maintains the complete ``F2`` evidence for every
period up to ``max_period`` while symbols arrive one at a time or — the
fast path — in chunks.

Appending symbol ``t_j`` creates exactly the match pairs ``(j - p, j)``
with ``t_{j-p} = t_j`` for ``p <= max_period``, so a chunk of ``m``
arrivals creates exactly the pairs of one ``(m, max_period)`` lag-sweep
comparison against the ring buffer of the last ``max_period`` symbols;
the matches are scatter-added into a dense
:class:`~repro.streaming.counts.DenseCountStore` in a handful of numpy
calls — no re-scan, no second pass, no per-symbol interpreter work.  At
any moment :meth:`table` yields a
:class:`~repro.core.periodicity.PeriodicityTable` identical (up to the
period cap) to what the batch miners produce on the prefix seen so far;
the test suite asserts that equivalence bit-for-bit, for every chunking.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, SymbolPeriodicity
from ..core.sequence import SymbolSequence, integer_codes
from .counts import DenseCountStore

__all__ = ["OnlineMiner", "DEFAULT_CHUNK_SIZE"]

#: ingestion block size: large enough to amortize the numpy call
#: overhead, small enough that the (chunk, max_period) lag-sweep mask
#: stays cache-resident.
DEFAULT_CHUNK_SIZE = 2048


def check_code_range(codes: np.ndarray, sigma: int) -> None:
    """Reject any code outside ``0 .. sigma - 1`` (one vectorised scan)."""
    if codes.size == 0:
        return
    low = int(codes.min())
    high = int(codes.max())
    if low < 0 or high >= sigma:
        bad = low if low < 0 else high
        raise ValueError(f"code {bad} out of range")


class OnlineMiner:
    """Incremental miner over an unbounded symbol stream.

    Parameters
    ----------
    alphabet:
        Alphabet of the stream.
    max_period:
        Largest period maintained.  Memory is ``O(max_period)`` for the
        ring buffer plus the dense count store
        (``sigma * max_period^2 / 2`` counters).
    chunk_size:
        Internal ingestion block: :meth:`extend_codes` processes at most
        this many arrivals per vectorised sweep.  Purely a
        performance/memory knob — every chunking produces bit-identical
        evidence.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        max_period: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._alphabet = alphabet
        self._max_period = max_period
        self._chunk_size = chunk_size
        self._ring = np.full(max_period, -1, dtype=np.int64)
        self._n = 0
        self._store = DenseCountStore(len(alphabet), max_period)

    # -- feeding the stream -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of symbols consumed so far."""
        return self._n

    @property
    def max_period(self) -> int:
        """The period cap this miner maintains."""
        return self._max_period

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the stream."""
        return self._alphabet

    @property
    def chunk_size(self) -> int:
        """Internal ingestion block size."""
        return self._chunk_size

    def append(self, symbol: Hashable) -> None:
        """Consume one symbol."""
        self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> None:
        """Consume one symbol given as an integer code.

        Compatibility wrapper over the chunked path: a one-element
        chunk goes through the same vectorised kernel.
        """
        self.extend_codes(np.array([code], dtype=np.int64))

    def extend(self, symbols: Iterable[Hashable]) -> None:
        """Consume many symbols."""
        encode = self._alphabet.code
        self.extend_codes(np.asarray([encode(s) for s in symbols], dtype=np.int64))

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> None:
        """Consume many symbols given as codes — the vectorised fast path."""
        block = integer_codes(codes)
        check_code_range(block, len(self._alphabet))
        step = self._chunk_size
        for start in range(0, block.size, step):
            self._ingest(block[start : start + step])

    def consume(self, series: SymbolSequence) -> None:
        """Consume a whole series (must share this miner's alphabet)."""
        if series.alphabet != self._alphabet:
            raise ValueError("series alphabet differs from the stream alphabet")
        self.extend_codes(series.codes)

    def _ingest(self, chunk: np.ndarray) -> None:
        """One vectorised sweep: count every pair the chunk creates."""
        first = self._n
        cap = self._max_period
        depth = min(cap, first)
        if depth:
            # Ring slot of position i is i % max_period; gather the
            # `depth` positions preceding the chunk in stream order.
            slots = (first - depth + np.arange(depth)) % cap
            history = self._ring[slots]
        else:
            history = np.empty(0, dtype=np.int64)
        self._store.add(self._store.arrival_keys(history, chunk, first))
        tail = chunk[-min(chunk.size, cap) :]
        positions = np.arange(first + chunk.size - tail.size, first + chunk.size)
        self._ring[positions % cap] = tail
        self._n += chunk.size

    # -- querying the current state -------------------------------------------------

    def table(self) -> PeriodicityTable:
        """Snapshot of the evidence as a standard periodicity table."""
        return self._store.table(self._n, self._alphabet)

    def confidence(self, period: int) -> float:
        """Best current support of any symbol periodicity at ``period``.

        Reads the live dense counters — no table snapshot, no copies.
        """
        if period > self._max_period:
            raise ValueError(
                f"period {period} exceeds the maintained cap {self._max_period}"
            )
        return self._store.confidence(self._n, period)

    def periodicities(self, psi: float) -> list[SymbolPeriodicity]:
        """Current symbol periodicities with support ``>= psi``."""
        return self.table().periodicities(psi)
