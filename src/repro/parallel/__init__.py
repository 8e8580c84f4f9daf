"""Sharded parallel evaluation of the exact miner's period range.

The period range ``1..n/2`` of the paper's one-pass miner is
embarrassingly parallel — every period's witnesses come from one
shifted compare of the same codes — so this package shards it across a
worker pool:

* :mod:`repro.parallel.plan` — shard planner (oversubscribed contiguous
  period ranges, process/thread backend choice);
* :mod:`repro.parallel.engine` — the executor plus the count-only
  ``F2`` fast path used by pipeline scouting, hardened with per-shard
  timeouts, bounded retry, and the ``process -> thread -> serial``
  fallback chain (:data:`FALLBACK_CHAIN`, :data:`FAULT_POLICIES`).

Reached through ``ConvolutionMiner(engine="parallel", workers=...)``;
direct use is for callers that already hold integer codes.
"""

from .engine import (
    FALLBACK_CHAIN,
    FAULT_POLICIES,
    ParallelWitnessEngine,
    ShardFailure,
)
from .plan import Shard, ShardPlan, plan_shards

__all__ = [
    "ParallelWitnessEngine",
    "FALLBACK_CHAIN",
    "FAULT_POLICIES",
    "ShardFailure",
    "Shard",
    "ShardPlan",
    "plan_shards",
]
