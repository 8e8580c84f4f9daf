"""Deterministic fault injection for the parallel witness engine.

One pass over a stream cannot be repeated (Ergün et al., *Periodicity
in Data Streams with Wildcards*; *Streaming Periodicity with
Mismatches*), so the engine must survive partial failure mid-pass
instead of restarting it.  This package supplies the proof machinery:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, picklable,
  deterministic schedule of worker crashes, hard worker exits, shard
  hangs, and poisoned results at named injection sites;
* :mod:`repro.faults.inject` — the worker-side delivery helpers
  (no-ops without a plan) and the injected-fault exception types;
* :mod:`repro.faults.events` — :class:`FaultEvent` /
  :class:`FallbackEvent` records plus the exception-to-site
  classifier, so recovery is observable rather than silent.

The hardened engine (:mod:`repro.parallel.engine`) takes a
``fault_plan=`` and must return results identical to the serial
engines under any plan — the invariant the differential fuzzing
harness (``tests/test_fault_fuzz.py``) sweeps seeds against.
"""

from .events import FAULT_LOGGER, FallbackEvent, FaultEvent, classify_fault
from .inject import FaultInjected, PoisonedShard, fire, hang, poison
from .plan import (
    POISON_FLAVORS,
    RESULT_POISON,
    SHARD_TIMEOUT,
    SITES,
    WORKER_CRASH,
    WORKER_EXIT,
    FaultPlan,
    Injection,
)

__all__ = [
    "FaultPlan",
    "Injection",
    "SITES",
    "POISON_FLAVORS",
    "WORKER_CRASH",
    "WORKER_EXIT",
    "SHARD_TIMEOUT",
    "RESULT_POISON",
    "FaultInjected",
    "PoisonedShard",
    "fire",
    "hang",
    "poison",
    "FaultEvent",
    "FallbackEvent",
    "classify_fault",
    "FAULT_LOGGER",
]
