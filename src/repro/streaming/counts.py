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
(layout defined by :func:`repro.core.periodicity.dense_offsets`) — via
``np.bincount`` / ``np.add.at``.  The key arithmetic runs in ``int32``
whenever every intermediate fits (``first_index`` is reduced modulo
each lag first, so unbounded stream indices never enter it), which
halves the bytes it moves and speeds up its ``%``.

This lag sweep is the only compare kernel of the streaming layer: each
pair is found once, when its later element arrives.  The sliding window
hands every chunk's keys back to :meth:`DenseCountStore.retain`, and
:meth:`DenseCountStore.eviction_keys` retracts an evicted element's
pairs by reading them from that cache — no second sweep.  The cache
holds the window's pairs, about ``window * max_period * sum_k f_k^2``
keys (linear in the window, the bound exact windowed periodicity needs
anyway).

Memory is ``sigma * max_period * (max_period + 1) / 2`` counters —
dense, unlike the sparse dicts it replaces — which buys branch-free
scatter updates and ``O(sigma * p)`` live confidence reads.  At
``sigma=8, max_period=128`` that is ~0.5 MB.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, dense_offsets, dense_size

__all__ = ["DenseCountStore"]

#: past this fraction of the store size, one bincount over the whole
#: store beats element-wise np.add.at on the match keys.
_BINCOUNT_THRESHOLD = 16

#: key arithmetic runs in int32 while every index stays below this.
_INT32_BOUND = 2**31


def index_dtype(bound: int) -> type[np.signedinteger]:
    """The dtype for indices below ``bound``: ``np.int32`` if they fit it."""
    return np.int32 if bound <= _INT32_BOUND else np.int64


def scatter(counts: np.ndarray, keys: np.ndarray, sign: int) -> None:
    """Add ``sign`` to ``counts`` once per key (keys may repeat)."""
    if keys.size == 0:
        return
    if keys.size * _BINCOUNT_THRESHOLD >= counts.size:
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
        # (first index, stop, earlier offsets, keys) of each retained
        # chunk, oldest first; stop bounds its absolute earlier indices.
        self._retained: deque[tuple[int, int, np.ndarray, np.ndarray]] = deque()

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
        return tuple(
            (first, earlier, keys) for first, _, earlier, keys in self._retained
        )

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
        view = as_strided(extended, (cap + 1, size), (step, step), writeable=False)
        hits = np.flatnonzero(view[:cap] == view[cap])
        # Hits are lag-major, so each lag's count is a searchsorted
        # difference and every per-lag value is a repeat, not a gather.
        row_starts = np.arange(0, (cap + 1) * size, size, dtype=index)
        bounds = np.searchsorted(hits, row_starts)
        per_lag = bounds[1:] - bounds[:-1]
        rows = hits.astype(index) - row_starts[:-1].repeat(per_lag)
        periods = self._lag_periods.astype(index, copy=False).repeat(per_lag)
        # The earlier element's residue (j - p) % p equals j % p; reducing
        # first_index per lag first keeps unbounded indices in range.
        residues = (first_index % self._lags).astype(index).repeat(per_lag) + rows
        residues %= periods
        keys = self._lag_offsets.astype(index, copy=False).repeat(per_lag)
        keys += chunk.astype(index)[rows] * periods
        keys += residues
        return keys, rows - periods

    # -- the eviction cache --------------------------------------------------

    def retain(self, first_index: int, earlier: np.ndarray, keys: np.ndarray) -> None:
        """Cache one chunk's :meth:`arrival_keys` output for later eviction.

        A chunk that starts fewer than ``max_period`` arrivals after the
        newest entry is merged into it.  Every entry but the newest then
        spans at least ``max_period`` arrivals, so the window start
        straddles at most two entries and an eviction filters no more,
        however small the chunks (one-symbol appends included).
        """
        if not keys.size:
            return
        stop = first_index + int(earlier.max()) + 1  # past every earlier index
        retained = self._retained
        if retained and first_index - retained[-1][0] < self._max_period:
            first, last_stop, last_earlier, last_keys = retained.pop()
            earlier = np.concatenate((last_earlier, earlier + (first_index - first)))
            keys = np.concatenate((last_keys, keys))
            first_index, stop = first, max(stop, last_stop)
        retained.append((first_index, stop, earlier, keys))

    def eviction_keys(self, start: int) -> np.ndarray:
        """Retained keys whose earlier element lies before ``start``.

        Evicting index ``e`` retracts the pairs ``(e, e + p)`` with
        ``t_e == t_{e+p}``; each was found by :meth:`arrival_keys` when
        ``e + p`` arrived and cached by :meth:`retain`.  This is a cache
        read — no compare — that also drops the returned keys, so a
        retained key always has its earlier element at ``>= start``.
        """
        retained = self._retained
        evicted = []
        while retained and retained[0][1] <= start:
            evicted.append(retained.popleft()[3])
        for slot in range(len(retained)):
            first, stop, earlier, keys = retained[slot]
            cut = start - first
            if cut <= -self._max_period:  # earlier offsets are >= -max_period
                break
            gone = earlier < cut
            evicted.append(keys[gone])
            kept = ~gone
            retained[slot] = (first, stop, earlier[kept], keys[kept])
        if not evicted:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(evicted)

    # -- scatter updates -----------------------------------------------------

    def add(self, keys: np.ndarray) -> None:
        """Scatter-add one pair per key into the store."""
        scatter(self._counts, keys, 1)

    def subtract(self, keys: np.ndarray) -> None:
        """Scatter-subtract one pair per key from the store."""
        scatter(self._counts, keys, -1)
        if keys.size and bool(np.any(self._counts[keys] < 0)):
            raise AssertionError("pair count went negative — eviction bug")

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
        dense = self._counts
        if start:
            dense = self._rotated(start)
        return PeriodicityTable.from_dense(n, alphabet, dense, self._max_period)

    def _rotated(self, start: int) -> np.ndarray:
        """Copy with every period block rolled to ``start``-relative positions."""
        rotated = self._counts.copy()
        for period in range(1, self._max_period + 1):
            shift = start % period
            if not shift:
                continue
            begin = int(self._offsets[period])
            block = self._counts[begin : begin + self._sigma * period]
            rolled = np.roll(block.reshape(self._sigma, period), -shift, axis=1)
            rotated[begin : begin + self._sigma * period] = rolled.ravel()
        return rotated
