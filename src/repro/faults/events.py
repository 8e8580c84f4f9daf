"""Structured records of faults survived and fallbacks taken.

Degradation must be observable, not silent: every retried shard emits
a :class:`FaultEvent` and every backend downgrade emits a
:class:`FallbackEvent`.  The engine keeps the records of its last run
(``ParallelWitnessEngine.events``, surfaced as
``ConvolutionMiner.fault_events``) and mirrors each one to the
``repro.parallel.faults`` logger at WARNING, so an operator sees a
degraded mine in the logs even when nobody polls the API.
"""

from __future__ import annotations

import logging
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from .inject import FaultInjected, PoisonedShard
from .plan import (
    RESULT_POISON,
    SHARD_TIMEOUT,
    WORKER_CRASH,
    WORKER_EXIT,
)

__all__ = ["FaultEvent", "FallbackEvent", "classify_fault", "FAULT_LOGGER"]

#: structured fault/fallback records are mirrored here at WARNING.
FAULT_LOGGER = logging.getLogger("repro.parallel.faults")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One shard dispatch that failed (and what the engine did next).

    Attributes
    ----------
    site:
        Classified failure site (one of :data:`repro.faults.SITES`).
    shard:
        Index of the shard in the run's shard plan.
    lo, hi:
        The shard's period range (both inclusive).
    attempt:
        Dispatch attempt that failed (0 = first try).
    backend:
        Backend the failure happened on (``process`` / ``thread``).
    action:
        ``"retry"`` (re-dispatched with backoff), ``"fallback"``
        (retries exhausted or the pool broke: degrade backend), or
        ``"raise"`` (``on_fault="raise"``: abort the run).
    error:
        ``repr`` of the underlying exception.
    """

    site: str
    shard: int
    lo: int
    hi: int
    attempt: int
    backend: str
    action: str
    error: str

    def __str__(self) -> str:
        return (
            f"fault {self.site} on {self.backend} shard {self.shard} "
            f"(periods {self.lo}..{self.hi}, attempt {self.attempt}) "
            f"-> {self.action}: {self.error}"
        )


@dataclass(frozen=True, slots=True)
class FallbackEvent:
    """One backend downgrade along the ``process -> thread -> serial`` chain."""

    from_backend: str
    to_backend: str
    reason: str
    redispatched: int

    def __str__(self) -> str:
        return (
            f"fallback {self.from_backend} -> {self.to_backend} "
            f"({self.redispatched} shard(s) re-dispatched): {self.reason}"
        )


def classify_fault(error: BaseException) -> str:
    """Map an exception to the injection-site taxonomy.

    Injected faults carry their site; real failures are classified by
    type so the same event stream describes both (timeouts look like
    ``shard.timeout`` whether injected or genuine, a dead pool looks
    like ``worker.exit``, anything else like ``worker.crash``).
    """
    if isinstance(error, FaultInjected):
        return error.site
    if isinstance(error, PoisonedShard):
        return RESULT_POISON
    if isinstance(error, (TimeoutError, FutureTimeoutError)):
        return SHARD_TIMEOUT
    if isinstance(error, BrokenExecutor):
        return WORKER_EXIT
    return WORKER_CRASH
