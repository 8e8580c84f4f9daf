"""Chunked one-pass readers for disk-resident symbol series.

The paper's motivation is online environments and databases "mined while
on disk": the series must be consumed in one sequential pass through
bounded memory.  A :class:`ChunkedReader` provides that access pattern —
an iterable of code blocks — from an in-memory array, a text file of
symbols, or any iterator; :meth:`ChunkedReader.feed_into` streams the
blocks into an :class:`~repro.streaming.online.OnlineMiner` (or any
other :class:`CodeSink`), which builds the same evidence table as
in-memory mining without ever holding the series.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Protocol

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import SymbolSequence, whole

__all__ = ["ChunkedReader", "CodeSink", "write_symbol_file"]


class CodeSink(Protocol):
    """Anything that ingests code blocks: miners, monitors, ...

    Satisfied structurally by :class:`~repro.streaming.online.OnlineMiner`,
    :class:`~repro.streaming.window.SlidingWindowMiner`, and
    :class:`~repro.streaming.monitor.PeriodicityMonitor`.
    """

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> object:
        """Consume one block of integer codes."""
        ...


def write_symbol_file(series: SymbolSequence, path: str | os.PathLike) -> Path:
    """Persist a series as a flat text file of one-character symbols.

    The symbols must render as single characters (the default alphabets
    do).  Returns the path written.
    """
    path = Path(path)
    rendered = series.to_string()
    if len(rendered) != series.length:
        raise ValueError("symbols must render as single characters")
    path.write_text(rendered, encoding="ascii")
    return path


class ChunkedReader:
    """One-pass block access to a symbol series.

    Parameters
    ----------
    source:
        A :class:`SymbolSequence`, a path to a symbol file written by
        :func:`write_symbol_file` (leading and trailing whitespace, such
        as a final newline, is ignored), or an iterable of symbols.
    alphabet:
        Required unless the source is a :class:`SymbolSequence`.
    block_size:
        Symbols per yielded block.

    Iterating yields ``int64`` code arrays; each full iteration re-reads
    the source from the start (a fresh pass).
    """

    def __init__(
        self,
        source: SymbolSequence | str | os.PathLike | Iterable,
        alphabet: Alphabet | None = None,
        block_size: int = 1 << 16,
    ) -> None:
        if whole("block_size", block_size) < 1:
            raise ValueError("block_size must be positive")
        if isinstance(source, SymbolSequence):
            alphabet = source.alphabet
        elif alphabet is None:
            raise ValueError("an alphabet is required for non-sequence sources")
        self._source = source
        self._alphabet = alphabet
        self._block_size = block_size

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the streamed series."""
        return self._alphabet

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return len(self._alphabet)

    def __iter__(self) -> Iterator[np.ndarray]:
        if isinstance(self._source, SymbolSequence):
            codes = self._source.codes
            for start in range(0, codes.size, self._block_size):
                yield codes[start : start + self._block_size]
        elif isinstance(self._source, (str, os.PathLike)):
            yield from self._iter_file(Path(self._source))
        else:
            yield from self._iter_symbols(iter(self._source))

    def _iter_file(self, path: Path) -> Iterator[np.ndarray]:
        """The file's symbols, ignoring leading and trailing whitespace.

        Whitespace at the end of a block is held back until a symbol
        follows it, so a final newline is dropped without reading the
        file twice.
        """
        encode = self._alphabet.encode
        started = False
        held = ""
        with open(path, "r", encoding="ascii") as handle:
            while True:
                chunk = handle.read(self._block_size)
                if not chunk:
                    return
                if not started:
                    chunk = chunk.lstrip()
                    started = bool(chunk)
                body = chunk.rstrip()
                if not body:
                    held += chunk
                    continue
                yield np.array(encode(held + body), dtype=np.int64)
                held = chunk[len(body):]

    def _iter_symbols(self, symbols: Iterator) -> Iterator[np.ndarray]:
        encode = self._alphabet.encode
        buffer: list = []
        for symbol in symbols:
            buffer.append(symbol)
            if len(buffer) == self._block_size:
                yield np.array(encode(buffer), dtype=np.int64)
                buffer = []
        if buffer:
            yield np.array(encode(buffer), dtype=np.int64)

    def feed_into(self, sink: CodeSink) -> int:
        """Stream every block straight into a miner or monitor.

        One pass over the source, one vectorised ``extend_codes`` call
        per block — the chunked-ingestion fast path end to end, with no
        per-symbol interpreter work in between.  Returns the number of
        symbols fed.
        """
        total = 0
        for block in self:
            sink.extend_codes(block)
            total += block.size
        return total

    def materialize(self) -> SymbolSequence:
        """Concatenate every block into an in-memory series."""
        blocks = list(self)
        codes = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
        return SymbolSequence.from_codes(codes, self._alphabet)
