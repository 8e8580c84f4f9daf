"""Dense ``F2`` evidence store and the vectorized chunk kernels.

The per-symbol streaming update (one ``O(max_period)`` gather plus a
Python dict bump per match) is interpreter-bound: at ``max_period=128``
it tops out around 50k symbols/s.  This module replaces it with
amortized-vectorized ingestion.  For a chunk of ``m`` arrivals the match
pairs ``t_{j-p} == t_j`` for every ``p <= max_period`` fall out of one
``(m, max_period)`` lag-sweep comparison against a sliding view of the
history-extended chunk, and the resulting keys are scatter-added into a
:class:`DenseCountStore` — a flat ``np.int64`` array over every
``(period, code, position)`` triple (layout defined by
:func:`repro.core.periodicity.dense_offsets`) — via ``np.bincount`` /
``np.add.at``.  Eviction retraction in the sliding window is the mirror
kernel: compare each evicted symbol against its ``max_period``
successors and scatter-subtract.

Memory is ``sigma * max_period * (max_period + 1) / 2`` counters —
dense, unlike the sparse dicts it replaces — which buys branch-free
scatter updates and ``O(sigma * p)`` live confidence reads.  At
``sigma=8, max_period=128`` that is ~0.5 MB.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, dense_offsets, dense_size
from ..core.projection import projection_pairs_array

__all__ = ["DenseCountStore"]

#: past this fraction of the store size, one bincount over the whole
#: store beats element-wise np.add.at on the match keys.
_BINCOUNT_THRESHOLD = 16


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

    def flatten(
        self, periods: np.ndarray, codes: np.ndarray, residues: np.ndarray
    ) -> np.ndarray:
        """Flat store indices of ``(period, code, residue)`` triples."""
        return self._offsets[periods] + codes * periods + residues

    def arrival_keys(
        self, history: np.ndarray, chunk: np.ndarray, first_index: int
    ) -> np.ndarray:
        """Flat keys of every pair created by a chunk of arrivals.

        ``chunk`` holds the codes of the arrivals at absolute stream
        indices ``first_index .. first_index + len(chunk) - 1``;
        ``history`` the ``min(max_period, first_index)`` codes that
        immediately precede them.  Arrival ``t_j`` creates one pair per
        lag ``p <= max_period`` with ``t_{j-p} == t_j``; the key of a
        pair is ``(p, code, (j - p) % p)`` — the *earlier* element's
        residue, as everywhere in the streaming layer.
        """
        period_cap = self._max_period
        if chunk.size == 0:
            return np.empty(0, dtype=np.int64)
        if history.size != min(period_cap, first_index):
            raise ValueError("history must hold min(max_period, first_index) codes")
        pad = period_cap - history.size
        parts = [history, chunk]
        if pad:
            # Codes are >= 0, so a -1 pad can never produce a match:
            # arrivals with fewer than max_period predecessors simply
            # sweep fewer real lags.
            parts.insert(0, np.full(pad, -1, dtype=np.int64))
        extended = np.concatenate(parts)
        # Row k of the view is extended[k : k + cap + 1]; its last entry
        # is chunk[k] and column i holds the symbol at lag cap - i.
        view = sliding_window_view(extended, period_cap + 1)
        mask = view[:, :period_cap] == view[:, period_cap:]
        rows, columns = np.divmod(np.flatnonzero(mask), period_cap)
        periods = period_cap - columns
        # The earlier element's residue (j - p) % p equals j % p.
        return self.flatten(periods, chunk[rows], (first_index + rows) % periods)

    def eviction_keys(
        self, extended: np.ndarray, extended_first: int, evict_first: int, count: int
    ) -> np.ndarray:
        """Flat keys of every pair whose earlier element is evicted.

        ``extended`` holds contiguous codes starting at absolute index
        ``extended_first`` and must cover
        ``evict_first .. evict_first + count - 1 + max_period``.  Evicting
        index ``e`` retracts the pairs ``(e, e + p)`` with
        ``t_e == t_{e+p}`` for every ``p <= max_period`` — keyed, like
        arrivals, by the earlier element's residue ``e % p``.
        """
        period_cap = self._max_period
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        low = evict_first - extended_first
        segment = extended[low : low + count + period_cap]
        if segment.size != count + period_cap:
            raise ValueError("extended array does not cover the eviction span")
        view = sliding_window_view(segment, period_cap + 1)
        mask = view[:, 1:] == view[:, :1]
        rows, columns = np.divmod(np.flatnonzero(mask), period_cap)
        periods = columns + 1
        evicted = evict_first + rows
        return self.flatten(periods, segment[rows], evicted % periods)

    # -- scatter updates -----------------------------------------------------

    def add(self, keys: np.ndarray) -> None:
        """Scatter-add one pair per key into the store."""
        self._apply(keys, 1)

    def subtract(self, keys: np.ndarray) -> None:
        """Scatter-subtract one pair per key from the store."""
        self._apply(keys, -1)
        if keys.size and bool(np.any(self._counts[keys] < 0)):
            raise AssertionError("pair count went negative — eviction bug")

    def _apply(self, keys: np.ndarray, sign: int) -> None:
        if keys.size == 0:
            return
        if keys.size * _BINCOUNT_THRESHOLD >= self._counts.size:
            delta = np.bincount(keys, minlength=self._counts.size)
            if sign > 0:
                self._counts += delta
            else:
                self._counts -= delta
        else:
            np.add.at(self._counts, keys, sign)

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
        block = self.period_block(period)
        best_per_position = block.max(axis=0)
        positions = (np.arange(period, dtype=np.int64) - shift) % period
        pairs = projection_pairs_array(n, period, positions)
        valid = pairs > 0
        if not bool(np.any(valid)):
            return 0.0
        return float((best_per_position[valid] / pairs[valid]).max())

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

