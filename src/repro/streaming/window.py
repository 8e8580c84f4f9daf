"""Sliding-window periodicity mining over an unbounded stream.

:class:`~repro.streaming.online.OnlineMiner` accumulates evidence over
the whole stream, which is right for stationary data; monitoring
scenarios instead want the periodicities of *the recent past*.  A
:class:`SlidingWindowMiner` maintains the full ``F2`` evidence of
exactly the last ``window`` symbols: arrivals add their match pairs
against the in-window suffix, and evictions retract the pairs whose
earlier element just left.  Every pair is found once: a chunk of ``m``
arrivals is one lag-sweep comparison
(:meth:`~repro.streaming.counts.DenseCountStore.arrival_keys`) whose
keys are retained in the dense
:class:`~repro.streaming.counts.DenseCountStore`; when the window start
passes a pair's earlier element, its key is read back from that cache —
no second sweep.  The cache holds exactly the window's pairs (about
``window * max_period * sum_k f_k^2`` keys).  Each chunk then reaches
the counters as one net
:meth:`~repro.streaming.counts.DenseCountStore.update`: its arrival
keys in and its evicted keys out, two in-place scatters and one check
that no count went negative.  Because ``p <= max_period < window``, a
pair is always added (when its later element arrives) no later than the
update that retracts it (when its earlier element leaves), so the net
update is exact — the test suite asserts equality with batch mining of
the window at every step and for every chunking, including chunks
larger than the window itself.  Fed one symbol at a time, the chunks
merge into cache entries sorted by earlier offset, so each eviction is
a ``searchsorted`` slice.

Positions are the subtle part: Definition 1's ``l`` is relative to the
start of the (windowed) series, which moves every slide.  Internally the
counts are keyed by the *absolute* earlier index mod ``p`` — invariant
under sliding — and rotated to window-relative positions only when a
snapshot is taken.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, SymbolPeriodicity
from ..core.sequence import integer_codes
from .counts import DenseCountStore
from .online import DEFAULT_CHUNK_SIZE, check_code_range, last_codes

__all__ = ["SlidingWindowMiner"]


class SlidingWindowMiner:
    """Evidence over the last ``window`` stream symbols, incrementally.

    Parameters
    ----------
    alphabet:
        Alphabet of the stream.
    max_period:
        Largest period maintained; must be smaller than ``window``.
    window:
        Window length in symbols.
    chunk_size:
        Internal ingestion block for :meth:`extend_codes`; a pure
        performance knob — every chunking yields identical evidence.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        max_period: int,
        window: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        if window <= max_period:
            raise ValueError("window must exceed max_period")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._alphabet = alphabet
        self._max_period = max_period
        self._window = window
        self._chunk_size = chunk_size
        self._recent = np.empty(0, dtype=np.int64)  # last <= max_period codes
        self._n = 0  # total symbols consumed
        self._store = DenseCountStore(len(alphabet), max_period)

    # -- properties --------------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the stream."""
        return self._alphabet

    @property
    def window(self) -> int:
        """The window length."""
        return self._window

    @property
    def max_period(self) -> int:
        """The period cap."""
        return self._max_period

    @property
    def n(self) -> int:
        """Total symbols consumed so far."""
        return self._n

    @property
    def start(self) -> int:
        """Absolute index of the oldest in-window symbol."""
        return max(self._n - self._window, 0)

    @property
    def size(self) -> int:
        """Current window occupancy (< window until it fills)."""
        return min(self._n, self._window)

    @property
    def chunk_size(self) -> int:
        """Internal ingestion block size."""
        return self._chunk_size

    # -- feeding -------------------------------------------------------------------

    def append(self, symbol: Hashable) -> None:
        """Consume one symbol."""
        self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> None:
        """Consume one symbol given as an integer code.

        Compatibility wrapper over the chunked path, with the same
        validation: a float code is rejected, not truncated.
        """
        self.extend_codes((code,))

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> None:
        """Consume many symbols given as codes — the vectorised fast path."""
        block = integer_codes(codes)
        check_code_range(block, len(self._alphabet))
        step = self._chunk_size
        for start in range(0, block.size, step):
            self._ingest(block[start : start + step])

    def _ingest(self, chunk: np.ndarray) -> None:
        """One chunk: its arrival pairs in, its evicted pairs out, in one update.

        Arrival ``j`` pairs with lags ``1..min(max_period, j)``; the
        earlier element ``j - p`` always sits inside the window at the
        time of arrival because ``p <= max_period < window``.  The
        chunk's keys are retained first, so the pairs whose earlier
        element the chunk pushes out of the window (possibly pairs found
        by this very chunk) are all read back from the cache; the arrival
        and evicted keys then go into the store as one net update.
        """
        store = self._store
        keys, earlier = store.arrival_keys(self._recent, chunk, self._n)
        store.retain(self._n, earlier, keys)
        self._recent = last_codes(self._recent, chunk, self._max_period)
        self._n += chunk.size
        evicted = store.eviction_keys(self.start) if self._n > self._window else None
        store.update(keys, evicted)

    # -- snapshots ------------------------------------------------------------------

    def table(self) -> PeriodicityTable:
        """Evidence table of the current window (relative positions)."""
        return self._store.table(self.size, self._alphabet, start=self.start)

    def confidence(self, period: int) -> float:
        """Best support of any symbol periodicity at ``period`` right now.

        Reads the live dense counters — no table snapshot, no copies.
        """
        if period > self._max_period:
            raise ValueError(
                f"period {period} exceeds the maintained cap {self._max_period}"
            )
        return self._store.confidence(self.size, period, shift=self.start)

    def periodicities(self, psi: float) -> list[SymbolPeriodicity]:
        """Current symbol periodicities of the window with support >= psi."""
        return self.table().periodicities(psi)
