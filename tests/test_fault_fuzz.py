"""Differential fuzzing: the faulted parallel engine vs. serial truth.

Every case mines the same random series twice — once serially, once
through the hardened parallel engine with a seeded random
:class:`repro.faults.FaultPlan` injecting crashes, hard worker exits,
hangs, and poisoned results — and requires the two
``F2`` tables to be exactly equal.  The sweep randomises the series
length ``n``, the alphabet size ``sigma``, the threshold ``psi`` (for
the periodicity read-out), the backend, and the fault schedule, all
from one integer seed, so any mismatch is replayable verbatim.

A handful of crafted deterministic cases ride along to guarantee that
each recovery path — per-site retry, process -> thread and
thread -> serial fallback — is exercised at least once per full run;
the final test asserts that coverage over everything the module
observed.
"""

import os
import random

import numpy as np
import pytest

from repro.core import SymbolSequence
from repro.core.periodicity import PeriodicityTable
from repro.faults import (
    RESULT_POISON,
    SHARD_TIMEOUT,
    SITES,
    WORKER_CRASH,
    FallbackEvent,
    FaultEvent,
    FaultPlan,
)
from repro.parallel import ParallelWitnessEngine

pytestmark = pytest.mark.slow

#: seeds in the sweep; CI quick mode runs the default 25.
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))

#: every fault/fallback the module's runs observed, asserted at the end.
OBSERVED: dict[str, set] = {"sites": set(), "actions": set(), "chains": set()}
_CASES_RUN: list[int] = []


def _record(events) -> None:
    for event in events:
        if isinstance(event, FaultEvent):
            OBSERVED["sites"].add(event.site)
            OBSERVED["actions"].add(event.action)
        elif isinstance(event, FallbackEvent):
            OBSERVED["chains"].add((event.from_backend, event.to_backend))


def _workload(rng: random.Random):
    n = rng.randint(40, 400)
    sigma = rng.randint(2, 6)
    series = [rng.randrange(sigma) for _ in range(n)]
    series[: sigma] = range(sigma)  # pin sigma: every symbol occurs
    seq = SymbolSequence.from_symbols(series)
    return seq, seq.codes, n, sigma


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_fault_plan_is_differentially_invisible(seed):
    rng = random.Random(seed)
    seq, codes, n, sigma = _workload(rng)
    max_period = n // 2
    psi = rng.uniform(0.2, 1.0)
    mode = "process" if seed % 5 == 0 else "thread"
    probe = ParallelWitnessEngine(workers=4, mode=mode).plan(max_period, n=n)
    plan = FaultPlan.random(
        seed, n_shards=len(probe.shards), max_count=4, delay=0.3
    )
    engine = ParallelWitnessEngine(
        workers=4,
        mode=mode,
        shard_timeout=0.1,
        max_retries=2,
        retry_backoff=0.0,
        fault_plan=plan,
    )
    faulted = engine.f2_tables(codes, sigma, max_period)
    serial = ParallelWitnessEngine(workers=1).f2_tables(codes, sigma, max_period)
    assert faulted == serial, (
        f"seed {seed}: faulted table diverged (plan {plan!r})"
    )
    # The psi read-out downstream of the table must agree too.
    faulted_table = PeriodicityTable(n, seq.alphabet, faulted)
    serial_table = PeriodicityTable(n, seq.alphabet, serial)
    assert tuple(faulted_table.periodicities(psi)) == tuple(
        serial_table.periodicities(psi)
    )
    _record(engine.events)
    _CASES_RUN.append(seed)


def _crafted_run(plan, mode="thread", **kwargs):
    rng = random.Random(20040314)
    seq, codes, n, sigma = _workload(rng)
    max_period = n // 2
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("retry_backoff", 0.0)
    engine = ParallelWitnessEngine(mode=mode, fault_plan=plan, **kwargs)
    faulted = engine.f2_tables(codes, sigma, max_period)
    serial = ParallelWitnessEngine(workers=1).f2_tables(codes, sigma, max_period)
    assert faulted == serial
    _record(engine.events)
    _CASES_RUN.append(-1)
    return engine.events


class TestCraftedPathCoverage:
    """Deterministic cases that force each recovery path at least once."""

    def test_each_site_recovers_in_a_process_pool(self):
        plan = (
            FaultPlan()
            .with_crash(shard=0)
            .with_hang(shard=2, delay=1.5)
            .with_poison(shard=3, flavor="alien")
        )
        events = _crafted_run(plan, mode="process", shard_timeout=0.6)
        sites = {e.site for e in events if isinstance(e, FaultEvent)}
        # worker.exit breaks the whole pool; the next test covers it.
        assert sites == {WORKER_CRASH, SHARD_TIMEOUT, RESULT_POISON}

    def test_worker_exit_forces_process_to_thread_fallback(self):
        events = _crafted_run(FaultPlan().with_exit(shard=1), mode="process")
        chains = {
            (e.from_backend, e.to_backend)
            for e in events
            if isinstance(e, FallbackEvent)
        }
        assert ("process", "thread") in chains

    def test_exhausted_retries_force_thread_to_serial_fallback(self):
        events = _crafted_run(
            FaultPlan().with_crash(shard=0, count=99), max_retries=1
        )
        chains = {
            (e.from_backend, e.to_backend)
            for e in events
            if isinstance(e, FallbackEvent)
        }
        assert ("thread", "serial") in chains

    def test_full_degradation_process_to_serial(self):
        # Crash every shard forever on both pool backends: the run must
        # walk the whole chain and still return the serial answer.
        events = _crafted_run(
            FaultPlan().with_crash(count=99), mode="process", max_retries=0
        )
        chains = {
            (e.from_backend, e.to_backend)
            for e in events
            if isinstance(e, FallbackEvent)
        }
        assert chains == {("process", "thread"), ("thread", "serial")}


def test_sweep_covered_every_recovery_path():
    """Meta-assertion over everything this module ran."""
    if not _CASES_RUN:
        pytest.skip("no fuzz cases ran in this session")
    # The crafted cases alone guarantee this floor; the random sweep
    # widens it for free.
    assert OBSERVED["sites"] >= set(SITES)
    assert {"retry", "fallback"} <= OBSERVED["actions"]
    assert {("process", "thread"), ("thread", "serial")} <= OBSERVED["chains"]
