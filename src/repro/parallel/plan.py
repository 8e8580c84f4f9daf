"""Shard planning for the parallel witness engine.

The per-period counts (one shifted compare of the codes per period
``p = 1 .. max_period``) are mutually independent, so the period range
splits into contiguous shards that workers evaluate without any
coordination.  Every compare reads the whole series, so the series
itself is never split.  The planner decides two things:

* **how many shards** — more shards than workers (oversubscription) so
  the pool self-balances: low periods carry denser witness sets (the
  overlap window ``n - p`` is larger), so equal-width shards have
  unequal cost and a 1:1 split would leave workers idle at the tail;
* **processes or threads** — worker processes pay a fork plus a copy
  of the codes per task, which only amortises once the series and the
  period range are big enough.  Small inputs run on a thread pool
  (numpy releases the GIL inside the compare) or serially in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Shard", "ShardPlan", "plan_shards"]

#: below this series length a process pool costs more than it saves:
#: on a serial vs 2-worker grid (n = 1e4..1e6, max_period = 64..1000,
#: sigma = 4, 8; 2-vCPU VM) processes beat the serial loop only at
#: n = 1e6, where each period's compare is long enough to pay for the
#: fork and for shipping the per-period tables back.
_PROCESS_MIN_LENGTH = 1_000_000
#: a process pool also needs enough periods to keep every worker busy.
_PROCESS_MIN_PERIODS = 64
#: shards per worker; the slack lets the pool absorb cost imbalance.
_OVERSUBSCRIPTION = 4


@dataclass(frozen=True, slots=True)
class Shard:
    """One contiguous period range ``lo..hi`` (both inclusive)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"invalid shard bounds [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        """Number of periods in the shard."""
        return self.hi - self.lo + 1

    def periods(self) -> range:
        """The periods of the shard, ascending."""
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The planner's verdict: shards plus the execution backend."""

    shards: tuple[Shard, ...]
    workers: int
    use_processes: bool

    @property
    def max_period(self) -> int:
        """Largest period covered by the plan (0 when empty)."""
        return self.shards[-1].hi if self.shards else 0


def default_workers() -> int:
    """Worker count when the caller does not pin one: the CPU count."""
    return os.cpu_count() or 1


def plan_shards(
    max_period: int,
    *,
    n: int,
    workers: int | None = None,
    mode: str = "auto",
) -> ShardPlan:
    """Split ``1..max_period`` into shards and pick the backend.

    Parameters
    ----------
    max_period:
        Upper end of the period range (inclusive); ``< 1`` yields an
        empty plan.
    n:
        Length of the series — the per-period work, which drives the
        process/thread decision.
    workers:
        Worker cap; defaults to the CPU count.  Clamped to the number
        of periods.
    mode:
        ``"auto"`` (size-based backend choice), ``"process"``, or
        ``"thread"``.
    """
    if mode not in ("auto", "process", "thread"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_period < 1:
        return ShardPlan((), workers=1, use_processes=False)
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, max_period)
    if mode == "process":
        use_processes = workers > 1
    elif mode == "thread":
        use_processes = False
    else:
        use_processes = (
            workers > 1
            and n >= _PROCESS_MIN_LENGTH
            and max_period >= _PROCESS_MIN_PERIODS
        )
    n_shards = min(max_period, workers * _OVERSUBSCRIPTION) if workers > 1 else 1
    base, extra = divmod(max_period, n_shards)
    shards = []
    lo = 1
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(Shard(lo, lo + size - 1))
        lo += size
    return ShardPlan(tuple(shards), workers=workers, use_processes=use_processes)
