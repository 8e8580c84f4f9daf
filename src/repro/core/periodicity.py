"""Symbol periodicities and the table both miners produce.

Definition 1 of the paper: in a time series ``T`` of length ``n``, a
symbol ``s`` is *periodic with period p at position l* with respect to a
periodicity threshold ``psi`` iff::

    F2(s, pi_{p,l}(T)) / pairs(p, l) >= psi,   0 < psi <= 1

where ``pairs(p, l)`` is the number of adjacent pairs in the projection
(see :mod:`repro.core.projection`).  The left-hand side is the *support*
of the corresponding single-symbol pattern (Definition 2).

A :class:`PeriodicityTable` stores the complete evidence — the ``F2``
counts per ``(period, symbol, position)`` — produced by either mining
algorithm, and answers the threshold queries the rest of the pipeline
needs.  Both the faithful big-integer miner and the scalable spectral
miner emit this exact structure, which is what makes them interchangeable.
The table is columnar: four flat ``int64`` arrays of the non-zero cells
sorted by ``(period, position, code)``, so a threshold query is one
vectorised mask and a per-period query one slice.

The module also defines the *dense layout* used by the streaming layer:
every ``(period, symbol, position)`` triple up to a period cap flattened
into one contiguous array, so evidence can be scatter-added with
``np.bincount`` instead of nested dict updates.  Period ``p``'s block
starts at ``dense_offsets(sigma, cap)[p]`` and holds ``sigma * p``
counters ordered ``code * p + position``;
:meth:`PeriodicityTable.from_dense` converts such an array back into a
table in one vectorised pass.  The count kernel's per-period vector
(:func:`repro.core.projection.f2_counts_for_period`) uses the same
``code * p + position`` keys, and
:meth:`PeriodicityTable.from_period_keys` builds a table from its
non-zero entries.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet
from .projection import projection_pairs, projection_pairs_array

__all__ = [
    "SymbolPeriodicity",
    "PeriodicityTable",
    "dense_offsets",
    "dense_size",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


def dense_offsets(sigma: int, max_period: int) -> np.ndarray:
    """Block start of each period in the dense ``F2`` layout.

    Entry ``p`` (for ``1 <= p <= max_period``) is the flat index where
    period ``p``'s ``sigma * p`` counters begin; entry ``0`` is unused
    and zero.  The counter of ``(p, code, position)`` lives at
    ``offsets[p] + code * p + position``.
    """
    if sigma < 1 or max_period < 1:
        raise ValueError("sigma and max_period must be >= 1")
    periods = np.arange(max_period + 1, dtype=np.int64)
    return sigma * periods * (periods - 1) // 2


def dense_size(sigma: int, max_period: int) -> int:
    """Total number of counters in the dense layout."""
    if sigma < 1 or max_period < 1:
        raise ValueError("sigma and max_period must be >= 1")
    return sigma * max_period * (max_period + 1) // 2


@dataclass(frozen=True, slots=True, order=True)
class SymbolPeriodicity:
    """One detected periodicity: symbol ``s`` with period ``p`` at ``l``.

    Attributes
    ----------
    period:
        The period ``p``.
    position:
        The starting position ``l`` (``0 <= l < p``).
    symbol_code:
        Integer code of the periodic symbol.
    f2:
        The consecutive-occurrence count ``F2(s, pi_{p,l}(T))``.
    pairs:
        The support denominator (adjacent pairs of the projection).
    """

    period: int
    position: int
    symbol_code: int
    f2: int
    pairs: int

    @property
    def support(self) -> float:
        """The periodicity support ``F2 / pairs`` (0 when undefined)."""
        return self.f2 / self.pairs if self.pairs > 0 else 0.0

    def symbol(self, alphabet: Alphabet) -> Hashable:
        """Resolve the symbol code against an alphabet."""
        return alphabet.symbol(self.symbol_code)


class PeriodicityTable:
    """Complete ``F2`` evidence for every candidate period of a series.

    The evidence is held as four equal-length ``int64`` columns of the
    non-zero cells — ``period``, ``position``, ``code`` and ``f2`` —
    sorted by ``(period, position, code)`` (the order
    :meth:`periodicities` reports), plus the slice bounds of each
    period.  Every threshold query is a mask or a slice over them.

    Parameters
    ----------
    n:
        Length of the mined series.
    alphabet:
        The series alphabet.
    counts:
        Mapping ``period -> {(symbol_code, position): f2}``.  Only
        non-zero counts need to be present.  The mapping is converted
        to columns once; the miners' fast paths skip it through
        :meth:`from_period_keys` and :meth:`from_dense`.  A cell with a
        period below 1, a position outside ``0 .. period - 1``, a code
        outside ``0 .. sigma - 1``, or an ``F2`` that is not an integer
        between 0 and its projection's pair count (``projection_pairs(n,
        period, position)``) raises a ``ValueError`` naming it.
    """

    def __init__(
        self,
        n: int,
        alphabet: Alphabet,
        counts: Mapping[int, Mapping[tuple[int, int], int]],
    ) -> None:
        parts = [(p, cells) for p, cells in counts.items() if cells]
        sizes = [len(cells) for _, cells in parts]
        keys = chain.from_iterable(chain.from_iterable(c) for _, c in parts)
        columns = [
            np.repeat(np.array([p for p, _ in parts]), sizes),
            np.array(list(keys)),
            np.array(list(chain.from_iterable(c.values() for _, c in parts))),
        ]
        if sum(sizes) and not _valid_cells(n, len(alphabet), *columns):
            # Name the first invalid cell; this scan runs only on failure.
            for p, cells in parts:
                for (code, position), f2 in cells.items():
                    _check_cell(n, len(alphabet), p, code, position, f2)
        period, flat, f2 = (column.astype(np.int64) for column in columns)
        code, position = flat.reshape(-1, 2).T
        self._assign(n, alphabet, period, position, code, f2)

    @classmethod
    def from_period_keys(
        cls,
        n: int,
        alphabet: Alphabet,
        parts: Mapping[int, tuple[np.ndarray, np.ndarray]],
    ) -> "PeriodicityTable":
        """Build a table from the count kernel's non-zero entries.

        ``parts`` maps each period ``p`` to ``(keys, counts)``: the flat
        keys ``code * p + position`` of the non-zero entries of its
        :func:`repro.core.projection.f2_counts_for_period` vector and
        those entries.  The arrays are concatenated once; no per-cell
        Python runs.
        """
        sizes = [keys.size for keys, _ in parts.values()]
        period = np.repeat(
            np.fromiter(parts, dtype=np.int64, count=len(parts)), sizes
        )
        flat = _concatenate([keys for keys, _ in parts.values()])
        code, position = np.divmod(flat, period)
        table = cls.__new__(cls)
        table._assign(
            n, alphabet, period, position, code,
            _concatenate([counts for _, counts in parts.values()]),
        )
        return table

    @classmethod
    def from_dense(
        cls,
        n: int,
        alphabet: Alphabet,
        dense: np.ndarray,
        max_period: int,
        start: int = 0,
    ) -> "PeriodicityTable":
        """Build a table from a dense flattened count array.

        ``dense`` must follow the layout of :func:`dense_offsets` for
        ``sigma = len(alphabet)`` and the given ``max_period``.  Only
        non-zero counters are materialised: one ``flatnonzero`` finds
        them and one ``searchsorted`` on the block offsets their
        periods, so snapshots stay cheap even when the store is large.
        Counters keyed by absolute residue ``r`` land at position
        ``(r - start) % p`` (the sliding window's ``start``).
        """
        sigma = len(alphabet)
        offsets = dense_offsets(sigma, max_period)
        if dense.shape != (dense_size(sigma, max_period),):
            raise ValueError("dense array does not match the layout")
        flat = np.flatnonzero(dense)
        # offsets[0] == offsets[1] == 0, so the right-hand search maps
        # period 1's block to 1 as well.
        period = np.searchsorted(offsets, flat, side="right") - 1
        code, position = np.divmod(flat - offsets[period], period)
        if start:
            position = (position - start) % period
        table = cls.__new__(cls)
        table._assign(n, alphabet, period, position, code, dense[flat])
        return table

    def _assign(
        self,
        n: int,
        alphabet: Alphabet,
        period: np.ndarray,
        position: np.ndarray,
        code: np.ndarray,
        f2: np.ndarray,
    ) -> None:
        """Keep the non-zero cells, sorted, and index the periods."""
        columns = (period, position, code, f2)
        keep = f2 != 0
        if not keep.all():
            columns = tuple(column[keep] for column in columns)
        order = _canonical_order(*columns[:3])
        self._n = int(n)
        self._alphabet = alphabet
        self._period, self._position, self._code, self._f2 = (
            column[order].astype(np.int64, copy=False) for column in columns
        )
        starts = np.flatnonzero(np.diff(self._period, prepend=self._period[:1] - 1))
        self._periods = self._period[starts]
        self._bounds = np.append(starts, self._period.size)

    # -- raw access ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Length of the mined series."""
        return self._n

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the mined series."""
        return self._alphabet

    @property
    def periods(self) -> list[int]:
        """All periods with at least one non-zero ``F2`` count."""
        return self._periods.tolist()

    def f2(self, period: int, symbol_code: int, position: int) -> int:
        """``F2(s_k, pi_{p,l}(T))`` — zero when not recorded."""
        cells = self._slice(period)
        hit = (self._position[cells] == position) & (self._code[cells] == symbol_code)
        return int(self._f2[cells][hit].sum())

    def counts_for(self, period: int) -> dict[tuple[int, int], int]:
        """The ``(symbol_code, position) -> F2`` table of one period.

        A new dict built from the columns on every call.
        """
        cells = self._slice(period)
        keys = zip(self._code[cells].tolist(), self._position[cells].tolist())
        return dict(zip(keys, self._f2[cells].tolist()))

    def support(self, period: int, symbol_code: int, position: int) -> float:
        """Support of the single-symbol pattern ``(s_k, p, l)``."""
        pairs = projection_pairs(self._n, period, position)
        if pairs <= 0:
            return 0.0
        return self.f2(period, symbol_code, position) / pairs

    # -- threshold queries -----------------------------------------------------

    def periodicities(
        self, psi: float, period: int | None = None, min_pairs: int = 1
    ) -> list[SymbolPeriodicity]:
        """All symbol periodicities with support ``>= psi`` (Definition 1).

        Restricted to one ``period`` when given; sorted by
        ``(period, position, symbol_code)``.  ``min_pairs`` (default 1,
        the paper's definition) discards periodicities whose projection
        has fewer adjacent pairs — raising it suppresses the trivial
        certainty of near-``n/2`` periods whose support denominator is 1.
        The support compared with ``psi`` is ``F2 / pairs`` itself, the
        value :attr:`SymbolPeriodicity.support` reports.
        """
        cells, hit, pairs = self._hits(psi, period, min_pairs)
        columns = (
            self._period[cells], self._position[cells],
            self._code[cells], self._f2[cells], pairs,
        )
        return list(
            map(SymbolPeriodicity, *(column[hit].tolist() for column in columns))
        )

    def candidate_periods(self, psi: float, min_pairs: int = 1) -> list[int]:
        """Periods at which at least one symbol is periodic w.r.t. ``psi``."""
        _, hit, _ = self._hits(psi, None, min_pairs)
        return np.unique(self._period[hit]).tolist()

    def confidence(self, period: int) -> float:
        """Maximum support of any symbol/position at ``period``.

        This is the "confidence" of the paper's experimental study
        (Sect. 4.1): the minimum periodicity threshold value at which the
        period would still be detected.
        """
        cells = self._slice(period)
        pairs = projection_pairs_array(
            self._n, self._period[cells], self._position[cells]
        )
        valid = pairs > 0
        return float(np.max(self._f2[cells][valid] / pairs[valid], initial=0.0))

    # -- internals -------------------------------------------------------------

    def _slice(self, period: int) -> slice:
        """The cells of one period (an empty slice when it has none)."""
        index = int(np.searchsorted(self._periods, period))
        if index < self._periods.size and self._periods[index] == period:
            return slice(int(self._bounds[index]), int(self._bounds[index + 1]))
        return slice(0, 0)

    def _hits(
        self, psi: float, period: int | None, min_pairs: int
    ) -> tuple[slice, np.ndarray, np.ndarray]:
        """The cells in scope, which of them meet ``psi``, and their pairs."""
        if not 0 < psi <= 1:
            raise ValueError("the periodicity threshold must be in (0, 1]")
        if min_pairs < 1:
            raise ValueError("min_pairs must be >= 1")
        cells = slice(None) if period is None else self._slice(period)
        pairs = projection_pairs_array(
            self._n, self._period[cells], self._position[cells]
        )
        # Cells with no pair fail min_pairs; the clamp only avoids 0 / 0.
        support = self._f2[cells] / np.maximum(pairs, 1)
        return cells, (pairs >= min_pairs) & (support >= psi), pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicityTable):
            return NotImplemented
        return (
            self._n == other._n
            and self._alphabet == other._alphabet
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("_period", "_position", "_code", "_f2")
            )
        )

    def __repr__(self) -> str:
        return (
            f"PeriodicityTable(n={self._n}, sigma={len(self._alphabet)}, "
            f"periods={self._periods.size})"
        )


def _concatenate(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` as ``int64``, also of an empty list."""
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays]).astype(
        np.int64, copy=False
    )


def _valid_cells(
    n: int, sigma: int, period: np.ndarray, keys: np.ndarray, f2: np.ndarray
) -> bool:
    """Whether every mapping-form cell passes :func:`_check_cell`;
    ``keys`` holds each cell's code and position, flattened."""
    if keys.size != 2 * period.size or any(
        column.dtype != np.int64 for column in (period, keys, f2)
    ):
        return False
    code, position = keys.reshape(-1, 2).T
    return bool(
        (period >= 1).all()
        and ((0 <= position) & (position < period)).all()
        and ((0 <= code) & (code < sigma)).all()
        and (f2 >= 0).all()
        and (f2 <= projection_pairs_array(n, period, position)).all()
    )


def _check_cell(
    n: int, sigma: int, period: object, code: object, position: object, f2: object
) -> None:
    """Raise a ``ValueError`` naming the cell unless it is valid.

    A valid ``F2`` is at most the pair count of the cell's projection of
    a length-``n`` series, so no support exceeds 1.
    """
    cell = f"cell (code {code!r}, position {position!r}) of period {period!r}"

    def check(name: str, value: object, high: int, low: int = 0) -> int:
        if isinstance(value, (int, np.integer)) and low <= value <= high:
            return int(value)
        bound = f">= {low}" if high == _INT64_MAX else f"in {low}..{high}"
        raise ValueError(f"{cell}: {name} must be an integer {bound}, got {value!r}")

    p = check("the period", period, _INT64_MAX, low=1)
    l = check("the position", position, p - 1)
    check("the code", code, sigma - 1)
    check("F2", f2, projection_pairs(n, p, l))


def _canonical_order(
    period: np.ndarray, position: np.ndarray, code: np.ndarray
) -> np.ndarray:
    """The permutation sorting cells by ``(period, position, code)``.

    Every builder holds ``1 <= period``, ``0 <= position < period`` and
    ``0 <= code < sigma``, so one composite key orders the cells; the
    stable sort merges the runs the builders emit already sorted (per
    period, by code then position).
    """
    if period.size == 0:
        return np.empty(0, dtype=np.intp)
    positions = int(position.max()) + 1
    codes = int(code.max()) + 1
    if (int(period.max()) + 1) * positions * codes >= 2**63:
        raise ValueError("the table's cells overflow a 64-bit sort key")
    key = (period * positions + position) * codes + code
    return np.argsort(key, kind="stable")
