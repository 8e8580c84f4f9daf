"""Streaming substrate: one-pass readers and incremental miners.

* :class:`ChunkedReader` — block-wise, single-pass access to series on
  disk or in memory (:meth:`~ChunkedReader.feed_into` pipes blocks
  straight into any miner);
* :class:`OnlineMiner` — incremental evidence over the whole stream;
* :class:`SlidingWindowMiner` — the :class:`OnlineMiner` subclass whose
  evidence covers only the last ``window`` symbols (monitoring mode);
* :class:`DenseCountStore` — the flat scatter-add evidence store behind
  both miners' vectorised chunked ingestion, which sweeps a block
  :data:`DEFAULT_CHUNK_SIZE` arrivals at a time (the online miner counts
  a block of :data:`BULK_BLOCK_SIZE` or more per lag instead);
* :class:`PeriodicityMonitor` — a drift alarm on one period's windowed
  confidence.
"""

from .counts import DenseCountStore
from .reader import ChunkedReader, CodeSink, write_symbol_file
from .online import BULK_BLOCK_SIZE, DEFAULT_CHUNK_SIZE, OnlineMiner
from .window import SlidingWindowMiner
from .monitor import DriftEvent, PeriodicityMonitor

__all__ = [
    "ChunkedReader",
    "CodeSink",
    "DenseCountStore",
    "DEFAULT_CHUNK_SIZE",
    "BULK_BLOCK_SIZE",
    "write_symbol_file",
    "OnlineMiner",
    "SlidingWindowMiner",
    "DriftEvent",
    "PeriodicityMonitor",
]
