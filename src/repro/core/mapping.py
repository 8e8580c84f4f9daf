"""The paper's symbol-to-binary mapping scheme (Sect. 3.2).

Each symbol ``s_k`` of an alphabet of size ``sigma`` is mapped to the
``sigma``-bit binary representation of ``2**k``; a series of length ``n``
becomes a 0/1 vector ``T'`` of length ``sigma * n``.  For example, with
``a:001, b:010, c:100`` the series ``acccabb`` becomes
``001 100 100 100 001 010 010``.

After the weighted convolution of ``T'`` (reversed) with itself, the
component for symbol-shift ``p`` is a sum of distinct powers of two —
the *witness set* ``W_p``.  A witness ``w`` encodes one match of a pair
``t_j = t_{j+p} = s_k``:

* ``k = w mod sigma``                       (which symbol matched),
* ``j = n - p - 1 - floor(w / sigma)``      (the earlier pair position),
* ``l = j mod p``                           (the position within the period),
* ``m = j // p``                            (which repetition of the period).

Concretely ``w = sigma * (n - 1 - (j + p)) + k``: the later element of
the pair sits at series position ``i = j + p``, whose block starts at
bit ``sigma * i`` of ``T'``, and the reversal of the convolution turns
that into the exponent above.  The functions here implement both
directions and are pinned to the paper's worked examples by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import SymbolSequence

__all__ = [
    "binary_vector",
    "binary_vector_bits",
    "Witness",
    "witness_power",
    "decode_witness",
    "witness_keys",
    "period_witnesses",
]


def binary_vector(series: SymbolSequence) -> np.ndarray:
    """Map a series to its 0/1 vector ``T'`` of length ``sigma * n``.

    Block ``i`` (bits ``sigma*i .. sigma*i + sigma - 1``, leftmost
    first) holds the ``sigma``-bit binary representation of
    ``2**code(t_i)``; the most significant bit of the block comes first,
    so the set bit of block ``i`` is at offset ``sigma - 1 - k_i``.

    >>> T = SymbolSequence.from_string("acccabb")
    >>> "".join(map(str, binary_vector(T)))
    '001100100100001010010'
    """
    sigma = series.sigma
    n = series.length
    out = np.zeros(sigma * n, dtype=np.int64)
    if n:
        blocks = np.arange(n) * sigma
        out[blocks + (sigma - 1 - series.codes)] = 1
    return out


def binary_vector_bits(series: SymbolSequence) -> np.ndarray:
    """Set-bit positions of ``T'`` — one per symbol, ascending."""
    sigma = series.sigma
    positions = np.arange(series.length) * sigma + (sigma - 1 - series.codes)
    return positions.astype(np.int64)


@dataclass(frozen=True, slots=True)
class Witness:
    """A decoded witness: one match ``t_j = t_{j+p} = s_k``.

    Attributes mirror the paper's analysis of ``W_{p,k,l}``:
    ``symbol_code`` is ``k``, ``position`` is ``l = j mod p``, and
    ``repetition`` is ``m = j // p`` (the segment index used to align
    witnesses of multi-symbol candidate patterns).
    """

    power: int
    symbol_code: int
    earlier_index: int
    position: int
    repetition: int


def witness_power(n: int, sigma: int, earlier_index: int, period: int, symbol_code: int) -> int:
    """The power ``w`` that the match ``(j, j + p)`` of ``s_k`` contributes."""
    later = earlier_index + period
    if earlier_index < 0 or later >= n:
        raise ValueError("match pair out of range")
    return sigma * (n - 1 - later) + symbol_code


def decode_witness(w: int, n: int, sigma: int, period: int) -> Witness:
    """Decode a witness power from ``W_p`` (Sect. 3.2's mod/floor rules)."""
    if w < 0:
        raise ValueError("witness powers are non-negative")
    symbol_code = w % sigma
    earlier = n - period - 1 - (w // sigma)
    if earlier < 0:
        raise ValueError(
            f"power {w} does not encode a match at period {period} (n={n})"
        )
    return Witness(
        power=int(w),
        symbol_code=int(symbol_code),
        earlier_index=int(earlier),
        position=int(earlier % period),
        repetition=int(earlier // period),
    )


def witness_keys(
    powers: np.ndarray, n: int, sigma: int, period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a witness set ``W_p`` into its non-zero ``F2`` entries.

    Returns ``(keys, counts)``: the flat keys ``k * p + l`` of the
    ``W_{p,k,l}`` sets that are not empty and their cardinalities
    ``F2(s_k, pi_{p,l}(T))`` (Sect. 3.2) — one ``bincount`` of the
    decoded witnesses, in the layout of
    :func:`repro.core.projection.f2_keys`.
    """
    powers = np.asarray(powers, dtype=np.int64)
    earlier = n - period - 1 - powers // sigma
    if (earlier < 0).any():
        raise ValueError("witness set contains powers outside the series")
    counts = np.bincount(
        powers % sigma * period + earlier % period, minlength=sigma * period
    )
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def period_witnesses(codes: np.ndarray, sigma: int, period: int) -> np.ndarray:
    """The witness set ``W_p`` of one period, read off the codes directly.

    ``W_p`` holds one power ``w = sigma * (n - p - 1 - j) + t_j`` per
    position ``j`` with ``t_j = t_{j+p}`` (:func:`witness_power`), so a
    shifted compare of the codes finds every match without building
    ``T'``.  Returned ascending, like the convolution components.
    """
    n = codes.size
    if period < 1 or period >= n:
        return np.empty(0, dtype=np.int64)
    earlier = np.flatnonzero(codes[:-period] == codes[period:])[::-1]
    return sigma * (n - period - 1 - earlier) + codes[earlier].astype(np.int64)
