"""Sliding-window periodicity mining over an unbounded stream.

:class:`~repro.streaming.online.OnlineMiner` accumulates evidence over
the whole stream, which is right for stationary data; monitoring
scenarios instead want the periodicities of *the recent past*.  A
:class:`SlidingWindowMiner` is the online miner with evictions: a
subclass that maintains the full ``F2`` evidence of exactly the last
``window`` symbols and overrides only the count of one block and the
in-scope span.  It keeps the window's codes, not a key per pair: the
codes determine every pair there is to retract.

A block moves the window from ``[old, n)`` to ``[new, n + m)``, and
reaches the counters as one net update.  In go the block's pairs whose
earlier element lands in the new window (the arrival kernel, with the
in-window codes as history); out go the pairs whose earlier element is
in the departing span ``[old, new)``, recounted from that span and the
``max_period`` codes after it (the mirrored kernel).  A block of
``window`` symbols or more covers the window: its counters are zeroed
instead and only its last ``window`` symbols are counted.  Both sides
use the kernel :class:`~repro.streaming.online.OnlineMiner` would use
for the block: per lag on the thread pool
(:meth:`~repro.streaming.counts.DenseCountStore.add_block`,
:meth:`~repro.streaming.counts.DenseCountStore.evict_block`) from
:data:`~repro.streaming.online.BULK_BLOCK_SIZE` arrivals on, else a
lag sweep per chunk whose keys go into one
:meth:`~repro.streaming.counts.DenseCountStore.update`.  The test suite
asserts equality with batch mining of the window at every step and for
every blocking, including blocks larger than the window itself.

Positions are the subtle part: Definition 1's ``l`` is relative to the
start of the (windowed) series, which moves every slide.  Internally the
counts are keyed by the *absolute* earlier index mod ``p`` — invariant
under sliding — and rotated to window-relative positions only when a
snapshot is taken.
"""

from __future__ import annotations

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import whole
from .online import OnlineMiner

__all__ = ["SlidingWindowMiner"]


class SlidingWindowMiner(OnlineMiner):
    """Evidence over the last ``window`` stream symbols, incrementally.

    An :class:`~repro.streaming.online.OnlineMiner` whose in-scope span
    is the window: feeding, :meth:`table`, :meth:`confidence` and
    :meth:`periodicities` are inherited, and :attr:`start` / :attr:`size`
    place the window for them.  Memory is the online miner's counters
    plus ``window + max_period`` codes.

    Parameters
    ----------
    alphabet:
        Alphabet of the stream.
    max_period:
        Largest period maintained; must be smaller than ``window``.
    window:
        Window length in symbols.
    """

    def __init__(self, alphabet: Alphabet, max_period: int, window: int) -> None:
        window = whole("window", window)
        super().__init__(alphabet, max_period)
        if window <= self._max_period:
            raise ValueError("window must exceed max_period")
        self._window = window
        # Stream index i >= _first sits at _codes[i - _first]; the window's
        # codes are a suffix of _codes[: n - _first], moved to the front
        # once the next block would run past the end.
        self._codes = np.empty(
            window + self._max_period, dtype=np.min_scalar_type(len(alphabet))
        )
        self._first = 0

    # Inherited unchanged: perfbench/tracing.py wraps these by name
    # (``vars(SlidingWindowMiner)[name]``) as its ``ingest``, ``snapshot``
    # and ``confidence`` spans, so the names must resolve in this class body.
    extend_codes = OnlineMiner.extend_codes
    table = OnlineMiner.table
    confidence = OnlineMiner.confidence

    @property
    def window(self) -> int:
        """The window length."""
        return self._window

    @property
    def start(self) -> int:
        """Absolute index of the oldest in-window symbol."""
        return max(self._n - self._window, 0)

    @property
    def size(self) -> int:
        """Current window occupancy (< window until it fills)."""
        return min(self._n, self._window)

    def _consume(self, block: np.ndarray) -> None:
        """Count a checked block; one that covers the window starts it afresh.

        No pair of the old window survives a block of ``window`` symbols
        or more, and none of the block's pairs before its last
        ``window`` symbols lands in the new one: the counters are zeroed
        and the window restarts, empty, at that suffix.
        """
        window = self._window
        if block.size >= window:
            self._store.counts[:] = 0
            self._n += block.size - window
            self._first = self._n
            block = block[-window:]
        super()._consume(block)

    def _count(self, block: np.ndarray, bulk: bool) -> None:
        """One block of at most ``window`` arrivals as one net update.

        The window moves from ``[old, n)`` to ``[new, n + m)``.  The
        arrivals' pairs are counted against the in-window codes from
        ``new`` on, so none reaches back past the new start; the
        departing span's pairs are those it forms with the codes after
        it up to ``n``, every one counted when its later element arrived.
        """
        n, cap, store = self._n, self._max_period, self._store
        old = max(n - self._window, self._first)
        new = max(n + block.size - self._window, old)
        held = self._codes[old - self._first : n - self._first]
        gone = new - old
        history = held[max(gone, held.size - cap) :]
        span, after = held[:gone], held[gone : gone + cap]
        if bulk:
            store.evict_block(span, after, old)
            store.add_block(history, block, n, start=new)
        else:
            store.update(
                store.arrival_keys(history, block, n, start=new),
                store.eviction_keys(span, after, old),
            )
        if n + block.size - self._first > self._codes.size:
            kept = held[gone:]
            self._codes[: kept.size] = kept
            self._first = new
        self._codes[n - self._first : n - self._first + block.size] = block
        self._n = n + block.size
