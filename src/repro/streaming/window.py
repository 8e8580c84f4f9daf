"""Sliding-window periodicity mining over an unbounded stream.

:class:`~repro.streaming.online.OnlineMiner` accumulates evidence over
the whole stream, which is right for stationary data; monitoring
scenarios instead want the periodicities of *the recent past*.  A
:class:`SlidingWindowMiner` is the online miner with evictions: a
subclass that maintains the full ``F2`` evidence of exactly the last
``window`` symbols and overrides only the ingestion sweep and the
in-scope span.  Arrivals add their match pairs against the in-window
suffix, and evictions retract the pairs whose earlier element just
left.  Every pair is found once: a chunk of ``m``
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

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import whole
from .online import OnlineMiner, last_codes

__all__ = ["SlidingWindowMiner"]


class SlidingWindowMiner(OnlineMiner):
    """Evidence over the last ``window`` stream symbols, incrementally.

    An :class:`~repro.streaming.online.OnlineMiner` whose in-scope span
    is the window: feeding, :meth:`table`, :meth:`confidence` and
    :meth:`periodicities` are inherited, and :attr:`start` / :attr:`size`
    place the window for them.

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
