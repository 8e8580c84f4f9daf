"""Symbol time series.

A :class:`SymbolSequence` is the central input type of the library: a
time series ``T = t_0, t_1, ..., t_{n-1}`` of symbols over a finite
:class:`~repro.core.alphabet.Alphabet`.  Internally the series is stored
as a compact :mod:`numpy` integer-code array, which every algorithm in the
package operates on.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import Hashable

import numpy as np

from .alphabet import Alphabet

__all__ = ["SymbolSequence", "integer_codes", "whole"]


_INT64 = np.iinfo(np.int64)


def integer_codes(codes: Iterable[int] | np.ndarray) -> np.ndarray:
    """``codes`` as a contiguous ``int64`` array.

    Arrays of any non-integer dtype (floats above all) are rejected
    rather than truncated: ``1.7`` is not a symbol code.  Codes outside
    the ``int64`` range are rejected with their real value instead of
    wrapping: ``uint64`` codes above its maximum, and Python ints that
    numpy can only hold in an ``object`` array (or, next to negative
    codes, a ``float64`` one).  An ``object`` array whose elements are
    all in-range integers is accepted, as the same list is.  Empty input
    of any dtype is accepted.
    """
    values = codes if isinstance(codes, np.ndarray) else list(codes)
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "biu":
        if isinstance(values, list) or array.dtype == object:
            items = values if isinstance(values, list) else array.ravel().tolist()
            if _all_int64(items):
                return np.array(items, dtype=np.int64).reshape(array.shape)
        raise ValueError(
            f"symbol codes must be integers, got an array of dtype {array.dtype}"
        )
    if array.dtype == np.uint64 and array.size:
        # The int64 cast would wrap these to negative values.
        high = int(array.max())
        if high > _INT64.max:
            raise ValueError(f"code {high} out of range")
    return np.ascontiguousarray(array, dtype=np.int64)


def whole(name: str, value: object) -> int:
    """``value`` as an ``int``, or a ``TypeError`` naming the argument."""
    try:
        return operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _all_int64(items: Sequence[object]) -> bool:
    """Whether every item is an integer; names the first one outside ``int64``."""
    ints = [item for item in items if isinstance(item, (int, np.integer))]
    if len(ints) < len(items):
        return False
    for item in ints:
        if not _INT64.min <= item <= _INT64.max:
            raise ValueError(f"code {item} out of range")
    return True


class SymbolSequence:
    """An immutable time series of symbols over a fixed alphabet.

    Parameters
    ----------
    codes:
        Integer symbol codes, one per timestamp.
    alphabet:
        The alphabet the codes index into.

    Notes
    -----
    Construct with :meth:`from_string`, :meth:`from_symbols`, or
    :meth:`from_codes` rather than calling the constructor with raw
    arrays, unless the codes already come from another sequence.
    """

    __slots__ = ("_codes", "_alphabet")

    def __init__(self, codes: np.ndarray, alphabet: Alphabet) -> None:
        codes = integer_codes(codes)
        if codes.ndim != 1:
            raise ValueError("a time series must be one-dimensional")
        if codes.size and (codes.min() < 0 or codes.max() >= len(alphabet)):
            raise ValueError(
                f"codes out of range for alphabet of size {len(alphabet)}"
            )
        self._codes = codes
        self._codes.setflags(write=False)
        self._alphabet = alphabet

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_string(
        cls, text: str, alphabet: Alphabet | None = None
    ) -> "SymbolSequence":
        """Build a sequence from a string of one-character symbols.

        >>> SymbolSequence.from_string("abcabbabcb").length
        10
        """
        if alphabet is None:
            alphabet = Alphabet(sorted(set(text)))
        return cls(np.array(alphabet.encode(text), dtype=np.int64), alphabet)

    @classmethod
    def from_symbols(
        cls,
        symbols: Iterable[Hashable],
        alphabet: Alphabet | None = None,
    ) -> "SymbolSequence":
        """Build a sequence from an iterable of arbitrary symbols."""
        symbols = list(symbols)
        if alphabet is None:
            alphabet = Alphabet.from_sequence(symbols)
        return cls(np.array(alphabet.encode(symbols), dtype=np.int64), alphabet)

    @classmethod
    def from_codes(
        cls, codes: Iterable[int] | np.ndarray, alphabet: Alphabet
    ) -> "SymbolSequence":
        """Build a sequence directly from integer codes."""
        return cls(integer_codes(codes), alphabet)

    # -- basic accessors -----------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The (read-only) integer-code array of the series."""
        return self._codes

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet of the series."""
        return self._alphabet

    @property
    def length(self) -> int:
        """The number of timestamps ``n``."""
        return int(self._codes.size)

    @property
    def sigma(self) -> int:
        """The alphabet size, written sigma in the paper."""
        return len(self._alphabet)

    def symbols(self) -> list[Hashable]:
        """The series as a list of symbols."""
        return self._alphabet.decode(self._codes)

    def to_string(self) -> str:
        """The series as a string (requires string symbols)."""
        return "".join(map(str, self.symbols()))

    # -- derived series ------------------------------------------------------

    def shifted(self, p: int) -> "SymbolSequence":
        """``T^(p)``: the series shifted by ``p`` positions (Sect. 3).

        Shifting drops the first ``p`` symbols, so ``shifted(p)[i]``
        equals ``self[i + p]``.
        """
        if not 0 <= p <= self.length:
            raise ValueError(f"shift {p} out of range for length {self.length}")
        return SymbolSequence(self._codes[p:], self._alphabet)

    def concatenated(self, other: "SymbolSequence") -> "SymbolSequence":
        """Concatenate two series over the same alphabet."""
        if other.alphabet != self._alphabet:
            raise ValueError("cannot concatenate over different alphabets")
        return SymbolSequence(
            np.concatenate([self._codes, other.codes]), self._alphabet
        )

    def indicator(self, code: int) -> np.ndarray:
        """0/1 vector marking the positions where symbol ``code`` occurs."""
        return (self._codes == code).astype(np.float64)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.symbols())

    def __getitem__(self, item: int | slice) -> "SymbolSequence | Hashable":
        if isinstance(item, slice):
            return SymbolSequence(self._codes[item], self._alphabet)
        return self._alphabet.symbol(int(self._codes[item]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolSequence):
            return NotImplemented
        return self._alphabet == other._alphabet and np.array_equal(
            self._codes, other._codes
        )

    def __hash__(self) -> int:
        return hash((self._alphabet, self._codes.tobytes()))

    def __repr__(self) -> str:
        preview = self.to_string() if self.length <= 32 else (
            "".join(map(str, self._alphabet.decode(self._codes[:29]))) + "..."
        )
        return f"SymbolSequence({preview!r}, n={self.length}, sigma={self.sigma})"
