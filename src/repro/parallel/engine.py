"""The sharded parallel exact engine: a thread pool over period shards.

Counts the paper's witness sets for a whole period range by fanning
contiguous period shards out over a thread pool.  Every shard runs the
one exact kernel: a shifted compare of the codes (``t_j = t_{j+p}``),
which finds exactly the matches that the convolution component ``W_p``
witnesses.  numpy releases the GIL inside the compare and the
``bincount``, so threads run shards concurrently over the one
in-memory copy of the codes, passed in the narrowest unsigned dtype
(:func:`repro.core.projection.narrow_codes`).  Every compare needs the
whole series, so the shards split the periods, not the series.

Two result shapes:

* **witnesses** — the full ascending witness-power arrays ``W_p``,
  bit-for-bit identical to the serial ``bitand`` / ``kronecker``
  engines (:func:`repro.core.mapping.period_witnesses`);
* **count-only** — per period, the non-zero flat keys ``k * p + l``
  of the ``F2`` count vector and their counts
  (:func:`repro.core.projection.f2_counts_for_period`, one
  ``bincount`` per period), which
  :meth:`repro.core.periodicity.PeriodicityTable.from_period_keys`
  turns into the table's columns without per-cell Python.

An exception raised in a shard propagates to the caller unchanged and
no partial result is returned.  Nothing is retried: a thread cannot
die apart from its process, a hung thread cannot be cancelled (so
re-dispatching it only doubles the load), and a numpy error on the
same in-memory codes repeats on retry.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.mapping import period_witnesses
from ..core.projection import f2_counts_for_period, narrow_codes

__all__ = ["ParallelWitnessEngine", "Shard", "plan_shards"]

#: shards per worker.  Low periods carry denser witness sets (the
#: overlap window ``n - p`` is larger), so equal-width shards have
#: unequal cost; the slack lets the pool absorb the imbalance instead
#: of leaving workers idle at the tail.
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


def default_workers() -> int:
    """Worker count when the caller does not pin one: the CPU count."""
    return os.cpu_count() or 1


def plan_shards(max_period: int, workers: int | None = None) -> tuple[Shard, ...]:
    """Split ``1..max_period`` into contiguous, balanced shards.

    ``workers`` (default: the CPU count) is clamped to the number of
    periods; more than one worker gets ``_OVERSUBSCRIPTION`` shards
    each, one worker a single shard.  ``max_period < 1`` yields no
    shards.
    """
    if max_period < 1:
        return ()
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, max_period)
    n_shards = min(max_period, workers * _OVERSUBSCRIPTION) if workers > 1 else 1
    base, extra = divmod(max_period, n_shards)
    shards = []
    lo = 1
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(Shard(lo, lo + size - 1))
        lo += size
    return tuple(shards)


def _mine_shard(
    codes: np.ndarray, sigma: int, shard: Shard, count_only: bool
) -> dict[int, object]:
    """Count one shard's periods: witness powers or non-zero ``F2`` keys."""
    out: dict[int, object] = {}
    for p in shard.periods():
        if count_only:
            vector = f2_counts_for_period(codes, sigma, p)
            keys = np.flatnonzero(vector)
            out[p] = (keys, vector[keys])
        else:
            out[p] = period_witnesses(codes, sigma, p)
    return out


class ParallelWitnessEngine:
    """Thread-pool evaluator of every period's witnesses or ``F2`` table.

    Parameters
    ----------
    workers:
        Thread cap (default: CPU count).  One worker, or a single
        period, runs inline without a pool.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers

    def witness_sets(
        self, codes: np.ndarray, sigma: int, max_period: int
    ) -> dict[int, np.ndarray]:
        """Witness powers ``W_p`` for every ``p`` in ``1..max_period``."""
        return self._run(codes, sigma, max_period, count_only=False)

    def f2_keys(
        self, codes: np.ndarray, sigma: int, max_period: int
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Count-only fast path: every period's non-zero ``F2`` entries.

        Maps ``p`` to ``(keys, counts)``: the flat keys ``k * p + l``
        of the non-zero entries of its
        :func:`repro.core.projection.f2_counts_for_period` vector and
        those entries — the input of
        :meth:`repro.core.periodicity.PeriodicityTable.from_period_keys`.
        """
        return self._run(codes, sigma, max_period, count_only=True)

    def _run(
        self, codes: np.ndarray, sigma: int, max_period: int, count_only: bool
    ) -> dict[int, object]:
        codes = narrow_codes(np.asarray(codes), sigma)
        shards = plan_shards(max_period, self._workers)
        mine = functools.partial(
            _mine_shard, codes, sigma, count_only=count_only
        )
        if len(shards) > 1:
            threads = min(len(shards), self._workers or default_workers())
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(mine, shards))
        else:
            parts = [mine(shard) for shard in shards]
        return {p: value for part in parts for p, value in part.items()}
