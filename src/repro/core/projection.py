"""Projections and consecutive-occurrence counts (Sect. 2.2 of the paper).

The two primitives defined here fix the paper's notation:

* ``pi_{p,l}(T) = t_l, t_{l+p}, t_{l+2p}, ...`` — the *projection* of a
  time series according to a period ``p`` starting from position ``l``.
* ``F2(s, X)`` — the number of times symbol ``s`` occurs in two
  *consecutive* positions of a sequence ``X``.

A symbol ``s`` is periodic with period ``p`` at position ``l`` with
respect to a threshold ``psi`` iff::

    F2(s, pi_{p,l}(T)) / (|pi_{p,l}(T)| - 1) >= psi

The denominator is the number of adjacent pairs in the projection.  The
paper writes it ``(n - l)/p - 1``; its worked examples (e.g. support 2/3
for symbol ``a`` in ``abcabbabcb`` with ``p = 3, l = 0``) pin the intended
reading down to ``ceil((n - l)/p) - 1``, which is exactly the number of
adjacent pairs, and that is what this module computes.

The count kernel of every batch table lives here too: one shifted
compare ``t_j = t_{j+p}`` per period (:func:`f2_counts_for_period`),
mapped over the period range on a thread pool (:func:`map_periods`,
:func:`f2_keys`).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

import numpy as np

from .sequence import SymbolSequence, whole

__all__ = [
    "projection",
    "projection_length",
    "projection_pairs",
    "projection_pairs_array",
    "resolve_max_period",
    "f2",
    "f2_projection",
    "narrow_codes",
    "f2_counts_for_period",
    "map_periods",
    "f2_keys",
    "f2_table_from_keys",
]


def projection_length(n: int, p: int, l: int) -> int:
    """Number of elements of ``pi_{p,l}`` of a length-``n`` series."""
    if not 0 <= l < p:
        raise ValueError(f"position l={l} must satisfy 0 <= l < p={p}")
    if l >= n:
        return 0
    return -(-(n - l) // p)  # ceil((n - l) / p)


def projection_pairs(n: int, p: int, l: int) -> int:
    """Number of adjacent pairs in ``pi_{p,l}`` — the support denominator."""
    return max(projection_length(n, p, l) - 1, 0)


def projection_pairs_array(n: int, p: np.ndarray | int, l: np.ndarray) -> np.ndarray:
    """:func:`projection_pairs` over arrays of periods and positions.

    ``p`` and ``l`` broadcast against each other; every ``l`` is taken
    to satisfy ``0 <= l < p`` (not checked).
    """
    lengths = np.where(l < n, -((l - n) // p), 0)
    return np.maximum(lengths - 1, 0)


def resolve_max_period(n: int, max_period: int | None) -> int:
    """The largest period a miner analyses on a series of length ``n``.

    ``None`` means the paper's ``n // 2`` (the Fig. 2 loop); an explicit
    cap must be ``>= 1`` and is clamped to ``n - 1``, the last shift
    with an overlap.  Series shorter than two symbols have no period.
    """
    if max_period is not None and whole("max_period", max_period) < 1:
        raise ValueError("max_period must be >= 1")
    cap = n // 2 if max_period is None else max_period
    return min(cap, n - 1) if n > 1 else 0


def projection(series: SymbolSequence, p: int, l: int) -> SymbolSequence:
    """Return the projection ``pi_{p,l}(T)`` as a new sequence.

    >>> T = SymbolSequence.from_string("abcabbabcb")
    >>> projection(T, 4, 1).to_string()
    'bbb'
    >>> projection(T, 3, 0).to_string()
    'aaab'
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if not 0 <= l < p:
        raise ValueError(f"position l={l} must satisfy 0 <= l < p={p}")
    return SymbolSequence(series.codes[l::p], series.alphabet)


def f2(symbol_code: int, codes: np.ndarray) -> int:
    """``F2(s, X)``: count adjacent positions of ``X`` both equal to ``s``.

    >>> T = SymbolSequence.from_string("abbaaabaa")
    >>> int(f2(T.alphabet.code("a"), T.codes))
    3
    >>> int(f2(T.alphabet.code("b"), T.codes))
    1
    """
    codes = np.asarray(codes)
    if codes.size < 2:
        return 0
    match = (codes[:-1] == symbol_code) & (codes[1:] == symbol_code)
    return int(np.count_nonzero(match))


def f2_projection(series: SymbolSequence, symbol_code: int, p: int, l: int) -> int:
    """``F2(s, pi_{p,l}(T))`` computed without materialising the projection.

    Counts positions ``j`` with ``j ≡ l (mod p)``, ``j + p < n`` and
    ``t_j = t_{j+p} = s`` — identical to applying :func:`f2` to
    :func:`projection` but in one vectorised pass.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if not 0 <= l < p:
        raise ValueError(f"position l={l} must satisfy 0 <= l < p={p}")
    codes = series.codes
    head = codes[l:-p:p] if series.length > p + l else codes[:0]
    tail = codes[l + p :: p]
    m = min(head.size, tail.size)
    return int(np.count_nonzero((head[:m] == symbol_code) & (tail[:m] == symbol_code)))


def narrow_codes(codes: np.ndarray, sigma: int) -> np.ndarray:
    """``codes`` in the narrowest unsigned dtype holding ``0 .. sigma - 1``.

    The shifted compare of :func:`f2_counts_for_period` reads every code
    once per period; one byte per code instead of eight makes it several
    times cheaper.
    """
    return codes.astype(np.min_scalar_type(max(sigma - 1, 0)))


def f2_counts_for_period(codes: np.ndarray, sigma: int, p: int) -> np.ndarray:
    """``F2(s_k, pi_{p,l}(T))`` of every ``(k, l)`` of one period, as one vector.

    Entry ``k * p + l`` of the result (length ``sigma * p``) counts the
    positions ``j`` with ``j mod p = l`` and ``t_j = t_{j+p} = s_k`` —
    exactly the paper's witness set ``W_{p,k,l}``, found by one shifted
    compare of the codes instead of the one-hot convolution.  ``codes``
    may use any integer dtype (callers narrow it to speed the compare
    up); the keys are formed in ``int64``, so ``sigma * p`` may exceed
    the range of the code dtype.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if p >= codes.size:
        return np.zeros(sigma * p, dtype=np.int64)
    earlier = np.flatnonzero(codes[:-p] == codes[p:])
    keys = codes[earlier].astype(np.int64) * p + earlier % p
    return np.bincount(keys, minlength=sigma * p)


#: period ranges per thread in :func:`map_periods`.  Low periods carry
#: more matches (the overlap ``n - p`` is longer), so equal-width ranges
#: have unequal cost; the slack lets the pool absorb the imbalance
#: instead of leaving threads idle at the tail.
_OVERSUBSCRIPTION = 4

_T = TypeVar("_T")


def map_periods(
    kernel: Callable[[int], _T], max_period: int, workers: int | None = None
) -> list[_T]:
    """``[kernel(p) for p in 1 .. max_period]``, run on a thread pool.

    The periods are split into contiguous, balanced ranges,
    ``_OVERSUBSCRIPTION`` per thread.  ``workers`` (default: the CPU
    count) caps the threads, which never outnumber the periods; one
    worker, or one period, runs inline.  numpy releases the GIL inside
    the compare and the ``bincount``, so the threads count concurrently
    over one in-memory copy of the codes.  An exception raised for any
    period propagates unchanged and no partial result is returned.
    Nothing is retried: a numpy error on the same codes repeats.
    """
    if workers is not None and whole("workers", workers) < 1:
        raise ValueError("workers must be >= 1")
    periods = range(1, max_period + 1)
    threads = min(workers or os.cpu_count() or 1, len(periods))
    if threads <= 1:
        return [kernel(p) for p in periods]
    count = min(len(periods), threads * _OVERSUBSCRIPTION)
    ranges = [
        periods[i * len(periods) // count : (i + 1) * len(periods) // count]
        for i in range(count)
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda part: [kernel(p) for p in part], ranges))
    return [value for part in parts for value in part]


def f2_keys(
    codes: np.ndarray, sigma: int, max_period: int, workers: int | None = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Every period's non-zero ``F2`` entries, counted on the thread pool.

    Maps each ``p`` in ``1 .. max_period`` to ``(keys, counts)``: the
    flat keys ``k * p + l`` of the non-zero entries of its
    :func:`f2_counts_for_period` vector and those entries — the input of
    :meth:`repro.core.periodicity.PeriodicityTable.from_period_keys`.
    """
    codes = narrow_codes(np.asarray(codes), sigma)

    def nonzero(p: int) -> tuple[np.ndarray, np.ndarray]:
        vector = f2_counts_for_period(codes, sigma, p)
        keys = np.flatnonzero(vector)
        return keys, vector[keys]

    parts = map_periods(nonzero, max_period, workers)
    return dict(zip(range(1, max_period + 1), parts))


def f2_table_from_keys(
    keys: np.ndarray, counts: np.ndarray, p: int
) -> dict[tuple[int, int], int]:
    """Flat keys ``k * p + l`` and their counts as ``{(k, l): F2}``."""
    return dict(
        zip(zip((keys // p).tolist(), (keys % p).tolist()), counts.tolist())
    )

