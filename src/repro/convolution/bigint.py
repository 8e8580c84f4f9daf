"""Exact big-integer convolution (Kronecker substitution) and bit tools.

The paper's modified convolution ``(x (*) y)_i = sum_j 2**j x_j y_{i-j}``
packs one *witness power of two per match* into each component, so the
components are Theta(n)-bit integers and must be computed exactly — a
floating-point FFT cannot carry them.  For the 0/1 vectors of the
mapping scheme, :func:`weighted_convolution_witnesses` computes the whole
convolution as **one big-integer multiplication** (Kronecker
substitution: evaluate both vectors at ``2**(n + 1)`` and read the
product's digits), preserving the paper's "one convolution" structure
literally: Python's sub-quadratic big-int multiplication plays the role
of the exact FFT.  It is cross-checked against the quadratic reference
:func:`repro.convolution.direct.weighted_convolve_direct`.

:func:`pack_bits` / :func:`bit_positions` convert between bit positions
and integers; the ``bitand`` engine of
:mod:`repro.core.convolution_miner` rests on them too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "pack_bits",
    "bit_positions",
    "weighted_convolution_witnesses",
]


def pack_bits(positions: Sequence[int] | np.ndarray, total_bits: int) -> int:
    """Build the integer whose set bits are exactly ``positions``.

    Bit ``e`` of the result is 1 iff ``e`` appears in ``positions``
    (LSB = bit 0).  Vectorised through ``numpy.packbits`` so building a
    multi-megabit integer costs one pass, not one shift per bit.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return 0
    if positions.min() < 0 or positions.max() >= total_bits:
        raise ValueError("bit position out of range")
    n_bytes = (total_bits + 7) // 8
    bits = np.zeros(n_bytes * 8, dtype=np.uint8)
    bits[positions] = 1
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bit_positions(value: int) -> np.ndarray:
    """Set-bit indices of a non-negative integer, ascending (LSB = 0).

    The inverse of :func:`pack_bits`; this is how the miner reads the
    witness powers ``W_p`` out of a convolution component.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return np.empty(0, dtype=np.int64)
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.nonzero(bits)[0].astype(np.int64)


def weighted_convolution_witnesses(
    x: Sequence[int] | np.ndarray, y: Sequence[int] | np.ndarray
) -> list[np.ndarray]:
    """Witness powers of every modified-convolution component, fast.

    For **0/1 inputs** (the binary vectors of the mapping scheme) every
    term of ``(x (*) y)_i`` contributes a *distinct* power of two, so the
    component is carry-free and its set bits are exactly the witness set
    ``W_i`` of Sect. 3.2.  This function performs the single Kronecker
    multiplication and then reads all witness sets out of the product in
    one vectorised bit pass.

    Returns a list of ``n`` ascending ``int64`` arrays; entry ``i`` holds
    the powers ``w`` with ``2**w`` present in component ``i``.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.size != y.size:
        raise ValueError("the paper's convolution is between equal-length sequences")
    bad = ((x != 0) & (x != 1)) | ((y != 0) & (y != 1))
    if bad.any():
        raise ValueError("witness extraction requires 0/1 sequences")
    n = int(x.size)
    digit_bits = n + 1  # components are sums of distinct 2**j, j < n
    x_pos = np.nonzero(x)[0]
    y_pos = np.nonzero(y)[0]
    total = (2 * n - 1) * digit_bits
    big_x = pack_bits(x_pos * digit_bits + x_pos, total)  # u_j = 2**j at digit j
    big_y = pack_bits(y_pos * digit_bits, total)
    product = big_x * big_y
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(n)]
    if product == 0:
        return out
    set_bits = bit_positions(product)
    digits = set_bits // digit_bits
    within = set_bits % digit_bits
    keep = digits < n  # the paper truncates the convolution to length n
    digits, within = digits[keep], within[keep]
    order = np.argsort(digits, kind="stable")
    digits, within = digits[order], within[order]
    boundaries = np.nonzero(np.diff(digits))[0] + 1
    groups = np.split(within, boundaries)
    uniq = digits[np.concatenate([[0], boundaries])] if digits.size else []
    out = [np.empty(0, dtype=np.int64) for _ in range(n)]
    for d, grp in zip(uniq, groups):
        out[int(d)] = np.sort(grp.astype(np.int64))
    return out
