"""Sharded parallel evaluation of the exact miner's period range.

The period range ``1..n/2`` of the paper's one-pass miner is
embarrassingly parallel — every period's witnesses come from one
shifted compare of the same codes — so :mod:`repro.parallel.engine`
splits it into oversubscribed contiguous shards (:func:`plan_shards`)
and runs them on a thread pool, with a count-only ``F2`` fast path
used by pipeline scouting.

Reached through ``ConvolutionMiner(engine="parallel", workers=...)``;
direct use is for callers that already hold integer codes.
"""

from .engine import ParallelWitnessEngine, Shard, plan_shards

__all__ = ["ParallelWitnessEngine", "Shard", "plan_shards"]
