"""Parsing and matching of pattern strings.

The paper renders patterns as strings over the alphabet plus the
don't-care symbol — ``ab*``, ``aaaa****bbbbc***********aa`` — and so do
this library's reports.  This module closes the loop: parse such a
string back into a :class:`~repro.core.patterns.PeriodicPattern`, and
locate where a pattern holds (or breaks) along a series.
"""

from __future__ import annotations

import numpy as np

from .alphabet import Alphabet
from .patterns import DONT_CARE, PeriodicPattern
from .sequence import SymbolSequence

__all__ = ["parse_pattern", "segment_matches"]


def parse_pattern(
    text: str, alphabet: Alphabet, support: float = 0.0
) -> PeriodicPattern:
    """Parse a paper-style pattern string like ``"ab*"``.

    Each character is a symbol of ``alphabet`` or the don't-care ``*``;
    the pattern period is the string length.

    >>> pattern = parse_pattern("ab*", Alphabet("abc"))
    >>> pattern.items
    ((0, 0), (1, 1))
    """
    if not text:
        raise ValueError("a pattern string must be non-empty")
    items: list[tuple[int, int]] = []
    for position, char in enumerate(text):
        if char != DONT_CARE:
            try:
                items.append((position, alphabet.code(char)))
            except KeyError:
                raise ValueError(
                    f"symbol {char!r} is not in the alphabet"
                ) from None
    return PeriodicPattern(len(text), tuple(items), support)


def segment_matches(
    series: SymbolSequence, pattern: PeriodicPattern
) -> np.ndarray:
    """Boolean vector: does each full period segment satisfy the pattern?

    Segment ``m`` covers positions ``[m*p, (m+1)*p)``; partial trailing
    segments are excluded.
    """
    period = pattern.period
    segments = series.length // period
    matrix = series.codes[: segments * period].reshape(segments, period)
    ok = np.ones(segments, dtype=bool)
    for l, k in pattern.items:
        ok &= matrix[:, l] == k
    return ok
