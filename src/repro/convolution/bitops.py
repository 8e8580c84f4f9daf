"""Packing of the binary vector ``T'`` into a ``uint64`` word array.

The exact miner's ``bitand`` engine evaluates the paper's convolution
component for shift ``p`` as ``X & (X >> sigma*p)`` on one huge Python
integer ``X``.  :func:`pack_positions` builds the same bits as a numpy
word array.

Bit convention (matches :mod:`repro.core.convolution_miner`): bit ``e``
of the packed array — bit ``e % 64`` of word ``e // 64`` — equals entry
``total - 1 - e`` of the binary vector ``T'``, i.e. the series is read
as one big binary number whose most significant bit is position 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_positions"]

_WORD = 64


def pack_positions(positions: np.ndarray, total_bits: int) -> np.ndarray:
    """Pack set-bit positions into a little-endian ``uint64`` word array.

    Equivalent to :func:`repro.convolution.bigint.pack_bits` but returns
    the words instead of one Python integer.  Grouped ``reduceat`` pack:
    the per-word masks are OR-reduced in one vectorised pass instead of
    the scalar inner loop of ``np.bitwise_or.at``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    words = np.zeros((total_bits + _WORD - 1) // _WORD, dtype=np.uint64)
    if positions.size == 0:
        return words
    if positions.min() < 0 or positions.max() >= total_bits:
        raise ValueError("bit position out of range")
    if positions.size > 1 and (np.diff(positions) < 0).any():
        positions = np.sort(positions)
    index = positions // _WORD
    masks = np.uint64(1) << (positions % _WORD).astype(np.uint64)
    starts = np.flatnonzero(np.diff(index)) + 1
    starts = np.concatenate([np.zeros(1, dtype=starts.dtype), starts])
    words[index[starts]] = np.bitwise_or.reduceat(masks, starts)
    return words
