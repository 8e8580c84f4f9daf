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

The sliding window retracts the pairs of the symbols that leave it by
counting them again, from the window's own codes: the pairs
``(e, e + p)`` of a departing span are those of the span and the
``max_period`` codes after it.  :meth:`DenseCountStore.eviction_keys`
is the mirror of the arrival sweep (each departing element compares
forward instead of back) and :meth:`DenseCountStore.evict_block` the
mirror of :meth:`~DenseCountStore.add_block`.  So the window holds its
codes and the counters, not a key per pair.

Every swept chunk reaches the counters as one net
:meth:`DenseCountStore.update`: arrival keys in, evicted keys out.  Each
side is one scatter, ``np.add.at`` while the keys number under three
quarters of the cells and one whole-store ``bincount`` otherwise (and
always on stores of at most 4,096 cells, such as the monitor's block);
the measured crossover is cited at :data:`_ADD_AT_MAX_SHARE`.  Then one
check that no count went negative: a store-wide ``min``, or a gather of
the removed keys' cells when they are fewer than 1/32 of the store.

Memory is ``sigma * max_period * (max_period + 1) / 2`` counters —
dense, unlike the sparse dicts it replaces — which buys branch-free
scatter updates and ``O(sigma * p)`` live confidence reads.  At
``sigma=8, max_period=128`` that is ~0.5 MB.
"""

from __future__ import annotations

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


def _check_nonnegative(low: int) -> None:
    """Raise unless ``low``, the least count an update touched, is >= 0."""
    if low < 0:
        raise AssertionError("pair count went negative — eviction bug")


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
        # and block offset are kept in the store's index dtype.  The
        # eviction sweep reads them reversed (row i holds lag i + 1).
        self._lags = np.arange(max_period, 0, -1, dtype=np.int64)
        index = index_dtype(self._counts.size)
        self._lag_periods = self._lags.astype(index)
        self._lag_offsets = self._offsets[self._lags].astype(index)
        # The narrowest dtype that holds every code and the pad value sigma.
        self._narrow = np.min_scalar_type(sigma)

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

    # -- key construction ----------------------------------------------------

    def arrival_keys(
        self, history: np.ndarray, chunk: np.ndarray, first_index: int, start: int = 0
    ) -> np.ndarray:
        """Flat keys of every in-scope pair created by a chunk of arrivals.

        ``chunk`` holds the codes of the arrivals at absolute stream
        indices ``first_index .. first_index + len(chunk) - 1``;
        ``start <= first_index`` is the first index in scope, and
        ``history`` the ``min(max_period, first_index - start)`` codes
        that immediately precede the chunk.  Arrival ``t_j`` creates one
        pair per lag ``p <= max_period`` with ``j - p >= start`` and
        ``t_{j-p} == t_j``; the key of a pair is ``(p, code, (j - p) %
        p)`` — the *earlier* element's residue, as everywhere in the
        streaming layer.  The keys are ``int32`` unless the store or the
        sweep has ``2**31`` or more entries.
        """
        self._check_history(history, first_index, start)
        cap = self._max_period
        # Codes are < sigma, so a sigma pad can never produce a match:
        # arrivals with fewer than max_period in-scope predecessors
        # simply sweep fewer real lags.
        extended = np.empty(cap + chunk.size, dtype=self._narrow)
        pad = cap - history.size
        extended[:pad] = self._sigma
        extended[pad:cap] = history
        extended[cap:] = chunk
        return self._sweep(extended, chunk.size, first_index, arriving=True)

    def eviction_keys(
        self, span: np.ndarray, after: np.ndarray, first_index: int
    ) -> np.ndarray:
        """Flat keys of every pair whose earlier element is in ``span``.

        The mirror of :meth:`arrival_keys`: ``span`` holds the codes at
        absolute indices ``first_index .. first_index + len(span) - 1``
        and ``after`` the (at most ``max_period``) codes that follow it,
        up to the newest one counted.  Each ``e`` in the span pairs with
        ``e + p`` for every lag ``p <= max_period`` that reaches into the
        span or ``after`` and has ``t_e == t_{e+p}``; the keys are those
        :meth:`arrival_keys` gave the same pairs.  The sliding window
        retracts the symbols that leave it with these keys: one forward
        lag sweep over its own codes.
        """
        cap = self._max_period
        if after.size > cap:
            raise ValueError("after must hold at most max_period codes")
        size = span.size
        extended = np.empty(size + cap, dtype=self._narrow)
        extended[:size] = span
        extended[size : size + after.size] = after
        extended[size + after.size :] = self._sigma  # past the stream: no match
        return self._sweep(extended, size, first_index, arriving=False)

    def _sweep(
        self, extended: np.ndarray, size: int, first_index: int, arriving: bool
    ) -> np.ndarray:
        """The pair keys of one ``(max_period, size)`` lag sweep.

        Row ``i`` of the strided view is ``extended[i : i + size]``.  For
        arrivals the reference row is the last (the chunk) and row ``i``
        holds its symbols at lag ``max_period - i``; for evictions it is
        the first (the span) and row ``i`` holds lag ``i``.  Either way
        the reference element at offset ``r`` has absolute index
        ``first_index + r`` and its partner at lag ``p`` keys the pair by
        the earlier element's residue, ``(first_index + r) % p`` for an
        eviction and ``(first_index + r - p) % p``, the same, for an
        arrival.
        """
        cap = self._max_period
        index = index_dtype(max(self._counts.size, cap * (size + 1)))
        if size == 0:
            return np.empty(0, dtype=index)
        step = extended.strides[0]
        view = np.ndarray((cap + 1, size), extended.dtype, extended, 0, (step, step))
        lags, periods, offsets = self._lags, self._lag_periods, self._lag_offsets
        if arriving:
            codes, partners = view[cap], view[:cap]
        else:
            codes, partners = view[0], view[1:]
            lags, periods, offsets = lags[::-1], periods[::-1], offsets[::-1]
        hits = (partners == codes).ravel().nonzero()[0]
        # Hits are lag-major, so each lag's count is a searchsorted
        # difference and every per-lag value is a repeat, not a gather.
        row_starts = np.arange(0, (cap + 1) * size, size, dtype=index)
        bounds = hits.searchsorted(row_starts)
        per_lag = bounds[1:] - bounds[:-1]
        rows = hits.astype(index) - row_starts[:-1].repeat(per_lag)
        periods = periods.astype(index, copy=False).repeat(per_lag)
        # Reducing first_index per lag first keeps unbounded indices in range.
        residues = (first_index % lags).astype(index).repeat(per_lag) + rows
        residues %= periods
        keys = offsets.astype(index, copy=False).repeat(per_lag)
        keys += codes.astype(index).take(rows) * periods
        keys += residues
        return keys

    # -- per-lag counts ------------------------------------------------------

    def add_block(
        self, history: np.ndarray, block: np.ndarray, first_index: int, start: int = 0
    ) -> None:
        """Count every in-scope pair a block of arrivals creates, per lag.

        The batch count kernel in place of the lag sweep: one
        :func:`~repro.core.projection.f2_counts_for_period` call per lag
        over ``history`` followed by ``block`` (the arguments of
        :meth:`arrival_keys`), run on the thread pool of
        :func:`~repro.core.projection.map_periods`.  Each call counts only
        the pairs whose later element is in the block, keyed by the
        earlier element's absolute residue.  The per-period vectors,
        concatenated in period order, are the store's layout, so they
        land as one add, and a failing period leaves the store as it was.
        """
        self._check_history(history, first_index, start)
        later = history.size
        codes = self._joined(history, block)
        base = first_index - later

        def arrivals(p: int) -> np.ndarray:
            return f2_counts_for_period(codes, self._sigma, p, later, base)

        self._counts += np.concatenate(map_periods(arrivals, self._max_period))

    def evict_block(
        self, span: np.ndarray, after: np.ndarray, first_index: int
    ) -> None:
        """Retract every pair whose earlier element is in ``span``, per lag.

        The per-lag mirror of :meth:`eviction_keys` (same arguments): at
        lag ``p`` the pairs are those of the span and the first ``p``
        codes after it, ``f2_counts_for_period(codes[: len(span) + p])``
        keyed from ``first_index``.  Checked like :meth:`update`: no
        count may go negative.
        """
        if after.size > self._max_period:
            raise ValueError("after must hold at most max_period codes")
        if not span.size:
            return
        codes = self._joined(span, after)
        gone = span.size

        def departures(p: int) -> np.ndarray:
            pairs = codes[: gone + p]
            return f2_counts_for_period(pairs, self._sigma, p, 0, first_index)

        self._counts -= np.concatenate(map_periods(departures, self._max_period))
        _check_nonnegative(self._counts.min())

    def _check_history(
        self, history: np.ndarray, first_index: int, start: int
    ) -> None:
        """Refuse a history that is not the codes from ``start`` on, at most
        ``max_period`` of them, before ``first_index``."""
        if history.size != min(self._max_period, first_index - start):
            raise ValueError(
                "history must hold min(max_period, first_index - start) codes"
            )

    def _joined(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """``head`` then ``tail`` in the narrow code dtype, in one copy."""
        return np.concatenate((head, tail), dtype=self._narrow, casting="unsafe")

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
            _check_nonnegative(counts[removed].min())
        else:
            _check_nonnegative(counts.min())

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
