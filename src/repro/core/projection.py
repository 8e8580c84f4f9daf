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
"""

from __future__ import annotations

import numpy as np

from .sequence import SymbolSequence

__all__ = [
    "projection",
    "projection_length",
    "projection_pairs",
    "projection_pairs_array",
    "f2",
    "f2_projection",
    "narrow_codes",
    "f2_counts_for_period",
    "f2_table_from_counts",
    "f2_table_from_keys",
    "f2_table_for_period",
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


def f2_table_from_counts(counts: np.ndarray, p: int) -> dict[tuple[int, int], int]:
    """The non-zero entries of a per-period count vector as ``{(k, l): F2}``.

    ``counts`` follows the layout of :func:`f2_counts_for_period`
    (entry ``k * p + l``).
    """
    keys = np.flatnonzero(counts)
    return f2_table_from_keys(keys, counts[keys], p)


def f2_table_from_keys(
    keys: np.ndarray, counts: np.ndarray, p: int
) -> dict[tuple[int, int], int]:
    """Flat keys ``k * p + l`` and their counts as ``{(k, l): F2}``."""
    return dict(
        zip(zip((keys // p).tolist(), (keys % p).tolist()), counts.tolist())
    )


def f2_table_for_period(series: SymbolSequence, p: int) -> dict[tuple[int, int], int]:
    """All non-zero ``F2(s_k, pi_{p,l}(T))`` for one period ``p``.

    Returns a mapping ``(symbol_code, position) -> F2`` containing only
    non-zero entries.  Vectorised: one compare over the ``n - p``
    aligned pairs of the series and one ``bincount``.
    """
    return f2_table_from_counts(f2_counts_for_period(series.codes, series.sigma, p), p)
