"""Online (incremental) periodicity mining over a growing stream.

The paper targets environments "(e.g., data streams)" that cannot abide
multiple passes; its own reference [4] extends the authors' work to
incremental and online mining.  This module provides that extension: an
:class:`OnlineMiner` maintains the complete ``F2`` evidence for every
period up to ``max_period`` while symbols arrive one at a time or — the
fast path — in chunks.

Appending symbol ``t_j`` creates exactly the match pairs ``(j - p, j)``
with ``t_{j-p} = t_j`` for ``p <= max_period``, so a chunk of ``m``
arrivals creates exactly the pairs of one ``(max_period, m)`` lag-sweep
comparison against the last ``max_period`` symbols;
the matches are scatter-added into a dense
:class:`~repro.streaming.counts.DenseCountStore` in a handful of numpy
calls — no re-scan, no second pass, no per-symbol interpreter work.  A
block of :data:`BULK_BLOCK_SIZE` arrivals or more is counted instead by
the batch miners' kernel,
:func:`~repro.core.projection.f2_counts_for_period`, once per lag on the
thread pool, and lands in the store as one add.  At
any moment :meth:`table` yields a
:class:`~repro.core.periodicity.PeriodicityTable` identical (up to the
period cap) to what the batch miners produce on the prefix seen so far;
the test suite asserts that equivalence bit-for-bit, for every chunking.

:class:`~repro.streaming.window.SlidingWindowMiner` is the same miner
with evictions: it subclasses :class:`OnlineMiner` and overrides only
the ingestion sweep (which it runs on blocks of every size) and the
in-scope span (:attr:`~OnlineMiner.start`,
:attr:`~OnlineMiner.size`) that :meth:`~OnlineMiner.table` and
:meth:`~OnlineMiner.confidence` read.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, SymbolPeriodicity
from ..core.sequence import SymbolSequence, integer_codes, whole
from .counts import DenseCountStore

__all__ = ["OnlineMiner", "DEFAULT_CHUNK_SIZE", "BULK_BLOCK_SIZE"]

#: sweep chunk size: :meth:`OnlineMiner.extend_codes` sweeps a block
#: shorter than :data:`BULK_BLOCK_SIZE` (and the sliding window every
#: block) at most this many arrivals at a time, so a shorter block is one
#: chunk.  Large enough to amortize the numpy call overhead, small enough
#: that the (chunk, max_period) lag-sweep mask stays cache-resident.
#: Re-measured with one net update per chunk (perfbench series,
#: in-process, median of 5, 2-vCPU VM), chunk sizes 2048 / 3072 / 4096 /
#: 8192 in symbols/s: online uniform 684k / 668k / 381k / 334k, window
#: uniform 411k / 461k / 439k / 297k, online planted 1.56M / 1.58M /
#: 1.55M / 1.63M, window planted 1.16M / 1.13M / 1.12M / 1.22M.  4096 and
#: up lose uniform online throughput, so 2048 stays.
DEFAULT_CHUNK_SIZE = 2048

#: :meth:`OnlineMiner.extend_codes` counts a block of at least this many
#: arrivals per lag on the thread pool instead of sweeping it.  Measured
#: on the first 98,304 symbols of the perfbench series fed in blocks of
#: B (in-process, median of 5, 2-vCPU VM), symbols/s per lag on 1 thread
#: / per lag on the default 2 threads / swept:
#: uniform (sigma 4, P 300), B = 8k: 528k / 279k / 352k; 16k: 779k /
#: 582k / 447k; 32k: 989k / 987k / 424k; 98k: 1.17M / 1.55M / 444k.
#: planted (sigma 8, P 200), B = 8k: 854k / 407k / 1.59M; 16k: 1.40M /
#: 903k / 2.07M; 32k: 1.38M / 1.41M / 1.47M; 98k: 1.87M / 2.67M / 1.76M.
#: Below 32k the pool's per-period overhead loses to the sweep on
#: planted data; from 32k the per-lag count ties it there and wins more
#: than twofold on uniform data.
BULK_BLOCK_SIZE = 32768


def stream_codes(codes: Iterable[int] | np.ndarray, sigma: int) -> np.ndarray:
    """``codes`` as a one-dimensional ``int64`` block of codes below ``sigma``.

    Any other shape, a non-integer dtype (see
    :func:`~repro.core.sequence.integer_codes`) and a code outside
    ``0 .. sigma - 1`` raise ``ValueError``.  The range takes one scan:
    viewed as ``uint64`` a negative code is huge, so one ``max`` catches
    both ends.
    """
    block = integer_codes(codes)
    if block.ndim != 1:
        raise ValueError(f"codes must be one-dimensional, got shape {block.shape}")
    if block.size and int(block.view(np.uint64).max()) >= sigma:
        low = int(block.min())
        raise ValueError(f"code {low if low < 0 else int(block.max())} out of range")
    return block


class OnlineMiner:
    """Incremental miner over an unbounded symbol stream.

    Parameters
    ----------
    alphabet:
        Alphabet of the stream.
    max_period:
        Largest period maintained.  Memory is ``O(max_period)`` for the
        recent codes plus the dense count store
        (``sigma * max_period^2 / 2`` counters).
    """

    def __init__(self, alphabet: Alphabet, max_period: int) -> None:
        max_period = whole("max_period", max_period)
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        self._alphabet = alphabet
        self._max_period = max_period
        self._recent = np.empty(0, dtype=np.int64)  # last <= max_period codes
        self._n = 0
        self._store = DenseCountStore(len(alphabet), max_period)

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
    def start(self) -> int:
        """Absolute index of the oldest in-scope symbol: the whole stream's 0."""
        return 0

    @property
    def size(self) -> int:
        """Number of in-scope symbols: all ``n`` of them."""
        return self._n

    # -- feeding the stream -------------------------------------------------------

    def append(self, symbol: Hashable) -> None:
        """Consume one symbol."""
        self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> None:
        """Consume one symbol given as an integer code.

        Compatibility wrapper over the chunked path: a one-element
        chunk goes through the same validation and vectorised kernel,
        so a float code is rejected, not truncated.
        """
        self.extend_codes((code,))

    def extend(self, symbols: Iterable[Hashable]) -> None:
        """Consume many symbols."""
        encode = self._alphabet.code
        self.extend_codes(np.asarray([encode(s) for s in symbols], dtype=np.int64))

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> None:
        """Consume many symbols given as codes — the vectorised fast path.

        A block of :data:`BULK_BLOCK_SIZE` arrivals or more is counted
        one lag at a time on the thread pool
        (:meth:`~repro.streaming.counts.DenseCountStore.add_block`); a
        shorter one, and every block of the sliding window, is swept
        :data:`DEFAULT_CHUNK_SIZE` arrivals at a time.  Every blocking
        yields identical evidence, so feed smaller blocks for fresher
        reads between them.
        """
        self._consume(stream_codes(codes, len(self._alphabet)))

    def consume(self, series: SymbolSequence) -> None:
        """Consume a whole series (must share this miner's alphabet)."""
        if series.alphabet != self._alphabet:
            raise ValueError("series alphabet differs from the stream alphabet")
        self.extend_codes(series.codes)

    def _consume(self, block: np.ndarray) -> None:
        """Count a checked block: per lag if it is large, else swept."""
        if block.size < BULK_BLOCK_SIZE:
            self._sweep(block)
            return
        self._store.add_block(self._recent, block, self._n)
        self._advance(block)

    def _sweep(self, block: np.ndarray) -> None:
        """Sweep a checked block :data:`DEFAULT_CHUNK_SIZE` arrivals at a time."""
        for first in range(0, block.size, DEFAULT_CHUNK_SIZE):
            self._ingest(block[first : first + DEFAULT_CHUNK_SIZE])

    def _ingest(self, chunk: np.ndarray) -> None:
        """One vectorised sweep: count every pair the chunk creates."""
        keys, _ = self._store.arrival_keys(self._recent, chunk, self._n)
        self._store.update(keys)
        self._advance(chunk)

    def _advance(self, chunk: np.ndarray) -> None:
        """Move the stream past a counted chunk: keep its last codes."""
        depth = self._max_period
        self._recent = np.concatenate((self._recent, chunk[-depth:]))[-depth:]
        self._n += chunk.size

    # -- querying the current state -------------------------------------------------

    def table(self) -> PeriodicityTable:
        """Snapshot of the in-scope evidence as a standard periodicity table.

        Positions are relative to :attr:`start`.
        """
        return self._store.table(self.size, self._alphabet, start=self.start)

    def confidence(self, period: int) -> float:
        """Best current support of any symbol periodicity at ``period``.

        Reads the live dense counters — no table snapshot, no copies.
        """
        period = whole("period", period)
        if period > self._max_period:
            raise ValueError(
                f"period {period} exceeds the maintained cap {self._max_period}"
            )
        return self._store.confidence(self.size, period, shift=self.start)

    def periodicities(self, psi: float) -> list[SymbolPeriodicity]:
        """Current symbol periodicities with support ``>= psi``."""
        return self.table().periodicities(psi)
