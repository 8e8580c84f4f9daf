"""Periodic patterns with don't-care positions (Definitions 2 and 3).

A *periodic pattern* of length ``p`` fixes a symbol in some positions
and leaves the rest as the don't-care symbol ``*``.  A *single-symbol*
pattern (Definition 2) fixes exactly one position; multi-symbol
candidates arise from the Cartesian product of the per-position periodic
symbol sets (Definition 3).

Support conventions, following the paper's worked examples:

* single-symbol pattern ``(s, p, l)``:
  ``F2(s, pi_{p,l}(T)) / (|pi_{p,l}(T)| - 1)``;
* multi-symbol pattern: ``|W'_p| / (ceil(n/p) - 1)`` where ``W'_p``
  aligns one witness per fixed position *within the same repetition*
  of the period — equivalently, the number of adjacent period-segment
  pairs in which every fixed position repeats its symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .alphabet import Alphabet

__all__ = ["DONT_CARE", "PeriodicPattern"]

#: Rendering of the don't-care symbol.
DONT_CARE = "*"


@dataclass(frozen=True, slots=True)
class PeriodicPattern:
    """A periodic pattern: fixed symbol codes by position, plus support.

    Attributes
    ----------
    period:
        The pattern length ``p``.
    items:
        The fixed ``(position, symbol_code)`` pairs, positions strictly
        increasing within ``0 .. p - 1``; every other position is the
        don't-care symbol, so a pattern costs O(arity), not O(p).
    support:
        The (estimated) support in ``[0, 1]``.  Excluded from equality
        and hashing so the same pattern mined at different thresholds
        compares equal.
    """

    period: int
    items: tuple[tuple[int, int], ...]
    support: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("pattern period must be >= 1")
        previous = -1
        for position, _ in self.items:
            if not previous < position < self.period:
                raise ValueError(
                    f"pattern positions must increase within 0..{self.period - 1}, "
                    f"got {self.items}"
                )
            previous = position
        if not 0.0 <= self.support <= 1.0:
            raise ValueError("support must lie in [0, 1]")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def single(
        cls, period: int, position: int, symbol_code: int, support: float = 0.0
    ) -> "PeriodicPattern":
        """The single-symbol pattern with ``s_k`` at ``position``."""
        return cls(period, ((position, symbol_code),), support)

    @classmethod
    def from_items(
        cls, period: int, items: dict[int, int], support: float = 0.0
    ) -> "PeriodicPattern":
        """Build from a ``{position: symbol_code}`` mapping."""
        return cls(period, tuple(sorted(items.items())), support)

    # -- structure ---------------------------------------------------------------

    @property
    def slots(self) -> tuple[int | None, ...]:
        """Length-``p`` tuple: entry ``l`` is a symbol code or ``None``."""
        slots: list[int | None] = [None] * self.period
        for position, code in self.items:
            slots[position] = code
        return tuple(slots)

    @property
    def arity(self) -> int:
        """Number of fixed (non-don't-care) positions."""
        return len(self.items)

    def with_support(self, support: float) -> "PeriodicPattern":
        """The same pattern annotated with a support value."""
        return PeriodicPattern(self.period, self.items, support)

    def matches_segment(self, segment: tuple[int, ...]) -> bool:
        """Whether a length-``p`` code segment satisfies the pattern."""
        if len(segment) != self.period:
            raise ValueError("segment length must equal the pattern period")
        return all(segment[l] == k for l, k in self.items)

    def to_string(self, alphabet: Alphabet) -> str:
        """Render as in the paper, e.g. ``'ab*'`` or ``'*b**'``."""
        return "".join(
            DONT_CARE if k is None else str(alphabet.symbol(k)) for k in self.slots
        )

    def symbols(self, alphabet: Alphabet) -> dict[int, Hashable]:
        """The fixed positions as ``{position: symbol}``."""
        return {l: alphabet.symbol(k) for l, k in self.items}

    def __str__(self) -> str:
        return (
            "".join(DONT_CARE if k is None else f"<{k}>" for k in self.slots)
            + f" @p={self.period} sup={self.support:.3f}"
        )
