"""Dense ``F2`` evidence store and the vectorized chunk kernels.

The per-symbol streaming update (one ``O(max_period)`` gather plus a
Python dict bump per match) is interpreter-bound: at ``max_period=128``
it tops out around 50k symbols/s.  This module replaces it with
amortized-vectorized ingestion.  For a chunk of ``m`` arrivals the match
pairs ``t_{j-p} == t_j`` for every ``p <= max_period`` fall out of one
``(max_period, m)`` lag-sweep comparison of the history-extended chunk
(codes narrowed to the smallest dtype) against the chunk itself, and the
resulting keys are scatter-added into a :class:`DenseCountStore` — a
flat ``np.int64`` array over every ``(period, code, position)`` triple
(layout defined by :func:`repro.core.periodicity.dense_offsets`).  The
key arithmetic runs in ``int32`` whenever every intermediate fits
(``first_index`` is reduced modulo each lag first, so unbounded stream
indices never enter it), which halves the bytes it moves and speeds up
its ``%``.

A block of :data:`~repro.streaming.online.BULK_BLOCK_SIZE` arrivals or
more skips the sweep: :meth:`DenseCountStore.add_block` counts it with
the batch kernel, one
:func:`~repro.core.projection.f2_counts_for_period` compare per lag on
the thread pool, and adds the per-period vectors to the store in one go.
It returns no keys, so only the online miner takes it.

Either way each pair is found once, when its later element arrives.
The sliding window sweeps every block: it hands every chunk's keys back
to :meth:`DenseCountStore.retain`, and
:meth:`DenseCountStore.eviction_keys` retracts an evicted element's
pairs by reading them from that cache — no second sweep.  The cache
holds the window's pairs, about ``window * max_period * sum_k f_k^2``
keys (linear in the window, the bound exact windowed periodicity needs
anyway).  Chunks shorter than ``max_period`` are merged into one cache
entry, sorted by earlier offset once, so one-symbol appends evict a
``searchsorted`` slice.

Every chunk reaches the counters as one net :meth:`DenseCountStore.update`:
arrival keys in, evicted keys out.  Each side is one scatter, ``np.add.at``
while the keys number under three quarters of the cells and one
whole-store ``bincount`` otherwise (and always on stores of at most 4,096
cells, such as the monitor's block); the measured crossover is cited at
:data:`_ADD_AT_MAX_SHARE`.  Then one check that no count went negative: a
store-wide ``min``, or a gather of the removed keys' cells when they are
fewer than 1/32 of the store.

Memory is ``sigma * max_period * (max_period + 1) / 2`` counters —
dense, unlike the sparse dicts it replaces — which buys branch-free
scatter updates and ``O(sigma * p)`` live confidence reads.  At
``sigma=8, max_period=128`` that is ~0.5 MB.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, dense_offsets, dense_size
from ..core.projection import f2_counts_for_period, map_periods

__all__ = ["DenseCountStore"]

#: np.add.at beats one whole-store bincount while the keys number fewer
#: than this share of the cells, except on small stores (below).
#: Measured on numpy 2.4 inside the online miner (arrival keys of
#: 2,048-symbol chunks unless noted, per chunk): planted, 55k keys into
#: 160,800 cells, 270-360 us add.at vs 390-410 us bincount, and 110k
#: keys (4,096-symbol chunks) 470-510 vs 600-610 us; uniform, 115k keys
#: into 180,600 cells, 470-660 vs 520-640 us, and 153k keys 690-820 vs
#: 600-750 us.  Keys that repeat cells, as planted ones do, favour add.at.
_ADD_AT_MAX_SHARE = 3 / 4

#: on stores of at most this many cells bincount wins at every key
#: count: 2.5-3.3 us vs 2.8-4.2 us on the monitor's 193-cell block and
#: 3.1-6.8 vs 3.1-9.3 us on 1,024 cells (uniform random keys, 1/16 to 2
#: keys per cell).  So the monitor keeps bincount.
_SMALL_STORE = 4096

#: the negativity check gathers the removed keys' cells while they are
#: fewer than the store over this, and otherwise takes one store-wide
#: min, which costs 20-23 us on 160-180k cells: there, a gather of 5k
#: keys costs 17 us and of 10k keys 33 us.
_GATHER_FRACTION = 32

#: key arithmetic runs in int32 while every index stays below this.
_INT32_BOUND = 2**31


def index_dtype(bound: int) -> type[np.signedinteger]:
    """The dtype for indices below ``bound``: ``np.int32`` if they fit it."""
    return np.int32 if bound <= _INT32_BOUND else np.int64


def scatter(counts: np.ndarray, keys: np.ndarray, sign: int) -> None:
    """Add ``sign`` to ``counts`` once per key (keys may repeat)."""
    if keys.size == 0:
        return
    if counts.size <= _SMALL_STORE or keys.size >= _ADD_AT_MAX_SHARE * counts.size:
        delta = np.bincount(keys, minlength=counts.size)
        if sign > 0:
            counts += delta
        else:
            counts -= delta
    else:
        np.add.at(counts, keys, sign)


def block_confidence(block: np.ndarray, n: int, shift: int = 0) -> float:
    """Best support of any ``(code, position)`` in one period's counters.

    ``block`` is shaped ``(sigma, p)`` and keyed by absolute residue;
    ``n`` is the length of the series the counts describe and ``shift``
    the absolute index where that series starts, so residue ``r`` is
    position ``(r - shift) % p``.  Every live confidence read of the
    streaming layer goes through here, so the floats agree bit for bit.

    The denominators are closed-form: with ``n = q * p + s`` and
    ``0 <= s < p``, positions ``0 .. s - 1`` (the cyclic run of ``s``
    residues from ``shift % p``) have ``q`` pairs and every other
    position ``q - 1``.  So the read is one column max of ``block`` and
    one max per group, each divided once (one whole-block max when
    ``s == 0``); a group with no pairs is skipped.  Correctly rounded
    division by a positive constant is monotone, so
    ``max(x) / q == max(x / q)`` bit for bit.
    """
    period = block.shape[1]
    q, s = divmod(n, period)
    if not s:  # every position has q - 1 pairs
        return int(block.max()) / (q - 1) if q > 1 else 0.0
    if not q:  # n < p: no position has a pair
        return 0.0
    start = shift % period
    best = block.max(axis=0)
    if start:
        best = np.concatenate((best, best))  # both groups become slices
    confidence = int(best[start : start + s].max()) / q
    if q > 1:
        rest = int(best[start + s : start + period].max()) / (q - 1)
        confidence = max(confidence, rest)
    return confidence


class _Entry:
    """The cached keys of one run of arrivals, kept for their eviction.

    ``earlier[i]`` is key ``i``'s earlier-element index minus ``first``;
    ``stop`` is past every such index.  An ``ordered`` entry is sorted
    by ``earlier`` and ``keys[:consumed]`` are already evicted; any
    other entry holds exactly its unevicted keys.
    """

    __slots__ = ("first", "stop", "earlier", "keys", "ordered", "consumed")

    def __init__(
        self, first: int, stop: int, earlier: np.ndarray, keys: np.ndarray
    ) -> None:
        self.first = first
        self.stop = stop
        self.earlier = earlier
        self.keys = keys
        self.ordered = False
        self.consumed = 0


class DenseCountStore:
    """Flattened ``(period, code, position)`` pair counts up to a cap.

    Parameters
    ----------
    sigma:
        Alphabet size.
    max_period:
        Largest period maintained.
    """

    def __init__(self, sigma: int, max_period: int) -> None:
        self._sigma = sigma
        self._max_period = max_period
        self._offsets = dense_offsets(sigma, max_period)
        self._counts = np.zeros(dense_size(sigma, max_period), dtype=np.int64)
        # Row i of the arrival sweep holds lag max_period - i; its period
        # and block offset are kept in the store's index dtype.
        self._lags = np.arange(max_period, 0, -1, dtype=np.int64)
        index = index_dtype(self._counts.size)
        self._lag_periods = self._lags.astype(index)
        self._lag_offsets = self._offsets[self._lags].astype(index)
        # The narrowest dtype that holds every code and the pad value sigma.
        self._narrow = np.min_scalar_type(sigma)
        # The eviction cache, oldest entry first.  While the newest entry
        # is open to merges, the (earlier offsets, keys) of the chunks
        # merged into it wait in _pending.
        self._retained: deque[_Entry] = deque()
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._merging = False

    # -- introspection -------------------------------------------------------

    @property
    def sigma(self) -> int:
        """Alphabet size of the store."""
        return self._sigma

    @property
    def max_period(self) -> int:
        """Largest period maintained."""
        return self._max_period

    @property
    def counts(self) -> np.ndarray:
        """The live flat counter array (mutating it mutates the store)."""
        return self._counts

    @property
    def retained(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """The cached ``(first_index, earlier, keys)`` entries, oldest first."""
        entries = [
            (entry.first, entry.earlier[entry.consumed :], entry.keys[entry.consumed :])
            for entry in self._retained
        ]
        if self._pending:
            first, earlier, keys = entries[-1]
            entries[-1] = (
                first,
                np.concatenate([earlier, *(e for e, _ in self._pending)]),
                np.concatenate([keys, *(k for _, k in self._pending)]),
            )
        return tuple(entries)

    # -- key construction ----------------------------------------------------

    def arrival_keys(
        self, history: np.ndarray, chunk: np.ndarray, first_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat keys of every pair created by a chunk of arrivals.

        ``chunk`` holds the codes of the arrivals at absolute stream
        indices ``first_index .. first_index + len(chunk) - 1``;
        ``history`` the ``min(max_period, first_index)`` codes that
        immediately precede them.  Arrival ``t_j`` creates one pair per
        lag ``p <= max_period`` with ``t_{j-p} == t_j``; the key of a
        pair is ``(p, code, (j - p) % p)`` — the *earlier* element's
        residue, as everywhere in the streaming layer.

        Returns ``(keys, earlier)``: ``earlier[i]`` is the index of key
        ``i``'s earlier element minus ``first_index`` (between
        ``-max_period`` and ``len(chunk) - 2``).  Both are ``int32``
        unless the store or the sweep has ``2**31`` or more entries.
        """
        cap = self._max_period
        size = chunk.size
        if history.size != min(cap, first_index):
            raise ValueError("history must hold min(max_period, first_index) codes")
        index = index_dtype(max(self._counts.size, cap * (size + 1)))
        if size == 0:
            return np.empty(0, dtype=index), np.empty(0, dtype=index)
        # Codes are < sigma, so a sigma pad can never produce a match:
        # arrivals with fewer than max_period predecessors simply sweep
        # fewer real lags.
        extended = np.empty(cap + size, dtype=self._narrow)
        pad = cap - history.size
        extended[:pad] = self._sigma
        extended[pad:cap] = history
        extended[cap:] = chunk
        # Row i of the view is extended[i : i + size]: the symbols at
        # lag cap - i of each arrival; row cap is the chunk itself.
        step = extended.strides[0]
        view = np.ndarray((cap + 1, size), extended.dtype, extended, 0, (step, step))
        hits = (view[:cap] == view[cap]).ravel().nonzero()[0]
        # Hits are lag-major, so each lag's count is a searchsorted
        # difference and every per-lag value is a repeat, not a gather.
        row_starts = np.arange(0, (cap + 1) * size, size, dtype=index)
        bounds = hits.searchsorted(row_starts)
        per_lag = bounds[1:] - bounds[:-1]
        rows = hits.astype(index) - row_starts[:-1].repeat(per_lag)
        periods = self._lag_periods.astype(index, copy=False).repeat(per_lag)
        # The earlier element's residue (j - p) % p equals j % p; reducing
        # first_index per lag first keeps unbounded indices in range.
        residues = (first_index % self._lags).astype(index).repeat(per_lag) + rows
        residues %= periods
        keys = self._lag_offsets.astype(index, copy=False).repeat(per_lag)
        keys += chunk.astype(index).take(rows) * periods
        keys += residues
        return keys, rows - periods

    def add_block(
        self, history: np.ndarray, block: np.ndarray, first_index: int
    ) -> None:
        """Count every pair a block of arrivals creates, one lag at a time.

        The batch count kernel in place of the lag sweep: one
        :func:`~repro.core.projection.f2_counts_for_period` call per lag
        over ``history`` followed by ``block`` (the arguments of
        :meth:`arrival_keys`), run on the thread pool of
        :func:`~repro.core.projection.map_periods`.  Each call counts only
        the pairs whose later element is in the block, keyed by the
        earlier element's absolute residue.  The per-period vectors,
        concatenated in period order, are the store's layout, so they
        land as one add, and a failing period leaves the store as it was.
        No keys come back, which is why the sliding window keeps the sweep.
        """
        cap = self._max_period
        if history.size != min(cap, first_index):
            raise ValueError("history must hold min(max_period, first_index) codes")
        later = history.size
        codes = np.empty(later + block.size, dtype=self._narrow)
        codes[:later] = history
        codes[later:] = block
        base = first_index - later

        def count(p: int) -> np.ndarray:
            return f2_counts_for_period(codes, self._sigma, p, later, base)

        self._counts += np.concatenate(map_periods(count, cap))

    # -- the eviction cache --------------------------------------------------

    def retain(self, first_index: int, earlier: np.ndarray, keys: np.ndarray) -> None:
        """Cache one chunk's :meth:`arrival_keys` output for later eviction.

        A chunk that starts fewer than ``max_period`` arrivals after the
        newest entry is merged into it while that entry is open, so
        however small the chunks (one-symbol appends included) an entry
        spans about ``max_period`` arrivals or more; fewer only when an
        eviction reaches the open entry, which needs a window shorter
        than ``2 * max_period``.  A merge only queues the chunk's arrays:
        they are concatenated once, when the entry is sealed
        (:meth:`_seal`).
        """
        if not keys.size:
            return
        stop = first_index + int(earlier.max()) + 1  # past every earlier index
        retained = self._retained
        if self._merging and first_index - retained[-1].first < self._max_period:
            newest = retained[-1]
            self._pending.append((earlier + (first_index - newest.first), keys))
            newest.stop = max(newest.stop, stop)
            return
        self._seal()
        retained.append(_Entry(first_index, stop, earlier, keys))
        self._merging = True

    def _seal(self) -> None:
        """Close the newest entry to merges; order it if it merged chunks.

        A merged entry's keys are sorted by earlier offset once, stably,
        so each later eviction takes a prefix of them.  One chunk's keys
        stay in kernel order: sorting its lag-major runs would cost more
        than the filters that evict it.
        """
        self._merging = False
        if not self._pending:
            return
        newest = self._retained[-1]
        earlier = np.concatenate([newest.earlier, *(e for e, _ in self._pending)])
        keys = np.concatenate([newest.keys, *(k for _, k in self._pending)])
        self._pending.clear()
        order = np.argsort(earlier, kind="stable")
        newest.earlier, newest.keys, newest.ordered = earlier[order], keys[order], True

    def eviction_keys(self, start: int) -> np.ndarray:
        """Retained keys whose earlier element lies before ``start``.

        Evicting index ``e`` retracts the pairs ``(e, e + p)`` with
        ``t_e == t_{e+p}``; each was found by :meth:`arrival_keys` when
        ``e + p`` arrived and cached by :meth:`retain`.  This is a cache
        read — no compare — that also drops the returned keys, so a
        retained key always has its earlier element at ``>= start``.
        An ordered entry gives up a slice found by ``searchsorted``, in
        ``O(evicted)``; a one-chunk entry is filtered and compacted.
        """
        retained = self._retained
        if self._merging and start - retained[-1].first > -self._max_period:
            self._seal()  # the start reaches the open entry
        evicted = []
        while retained and retained[0].stop <= start:
            entry = retained.popleft()
            evicted.append(entry.keys[entry.consumed :])
        for entry in retained:
            cut = start - entry.first
            if cut <= -self._max_period:  # earlier offsets are >= -max_period
                break
            if entry.ordered:
                end = int(entry.earlier.searchsorted(cut))
                evicted.append(entry.keys[entry.consumed : end])
                entry.consumed = end
                continue
            gone = entry.earlier < cut
            evicted.append(entry.keys[gone])
            kept = ~gone
            entry.earlier, entry.keys = entry.earlier[kept], entry.keys[kept]
        if not evicted:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(evicted)

    # -- count updates -------------------------------------------------------

    def update(self, added: np.ndarray, removed: np.ndarray | None = None) -> None:
        """Count one pair per ``added`` key and retract one per ``removed`` key.

        The net update of one chunk: a removed key was added by this
        call or an earlier one, so the counts never go negative.  That is
        checked after every update that removes keys: over the removed
        keys' cells when they are few, else with one store-wide ``min``,
        which is cheaper than the gather and covers every cell.
        """
        counts = self._counts
        scatter(counts, added, 1)
        if removed is None or not removed.size:
            return
        scatter(counts, removed, -1)
        if removed.size * _GATHER_FRACTION < counts.size:
            low = counts[removed].min()
        else:
            low = counts.min()
        if low < 0:
            raise AssertionError("pair count went negative — eviction bug")

    def add(self, keys: np.ndarray) -> None:
        """Count one pair per key: :meth:`update` with nothing removed."""
        self.update(keys)

    def subtract(self, keys: np.ndarray) -> None:
        """Retract one pair per key: :meth:`update` with nothing added."""
        self.update(keys[:0], keys)

    # -- reads ---------------------------------------------------------------

    def period_block(self, period: int) -> np.ndarray:
        """View of period ``p``'s counters, shaped ``(sigma, p)``."""
        if not 1 <= period <= self._max_period:
            raise ValueError(f"period {period} outside 1..{self._max_period}")
        start = int(self._offsets[period])
        block = self._counts[start : start + self._sigma * period]
        return block.reshape(self._sigma, period)

    def confidence(self, n: int, period: int, shift: int = 0) -> float:
        """Best support of any ``(code, position)`` at ``period``.

        ``n`` is the length of the series the counts describe; ``shift``
        rotates absolute residues to series-relative positions (the
        sliding window keys counts by absolute index mod ``p`` and its
        window starts at ``shift`` mod ``p``).  Reads the live counters
        directly — no snapshot, no dict copies.
        """
        return block_confidence(self.period_block(period), n, shift)

    def table(
        self, n: int, alphabet: Alphabet, start: int = 0
    ) -> PeriodicityTable:
        """Snapshot as a standard :class:`PeriodicityTable`.

        ``start`` is the absolute index of the first in-scope symbol:
        residues stored absolutely are rotated to positions relative to
        it (Definition 1's ``l``), which is the identity for the online
        miner (``start == 0``).
        """
        return PeriodicityTable.from_dense(
            n, alphabet, self._counts, self._max_period, start
        )
