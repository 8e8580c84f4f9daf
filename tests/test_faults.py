"""Fault-injection framework and the hardened parallel engine.

Covers the :mod:`repro.faults` package itself (plans, delivery,
events, classification) and every recovery path of
:class:`repro.parallel.ParallelWitnessEngine`: per-shard timeout,
bounded retry, result-integrity rejection, process -> thread -> serial
degradation, result salvage across a fallback, and the
``on_fault="raise"`` abort policy.  The differential sweep lives in
``test_fault_fuzz.py``; this module pins each mechanism individually.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core import Alphabet, SymbolSequence
from repro.core.convolution_miner import ConvolutionMiner
from repro.faults import (
    POISON_FLAVORS,
    RESULT_POISON,
    SHARD_TIMEOUT,
    SITES,
    WORKER_CRASH,
    WORKER_EXIT,
    FallbackEvent,
    FaultEvent,
    FaultInjected,
    FaultPlan,
    Injection,
    PoisonedShard,
    classify_fault,
    fire,
    hang,
    poison,
)
from repro.parallel import plan as plan_module
from repro.parallel import (
    FALLBACK_CHAIN,
    FAULT_POLICIES,
    ParallelWitnessEngine,
    ShardFailure,
)


def _sequence(series, sigma):
    seq = SymbolSequence.from_symbols(series)
    assert seq.sigma == sigma
    return seq


def _serial_reference(codes, sigma, max_period, count_only):
    engine = ParallelWitnessEngine(workers=1)
    if count_only:
        return engine.f2_tables(codes, sigma, max_period)
    return engine.witness_sets(codes, sigma, max_period)


def _witnesses_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[p], b[p]) for p in a)


class TestInjection:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            Injection("worker.meltdown")

    def test_rejects_bad_count_shard_delay_flavor(self):
        with pytest.raises(ValueError):
            Injection(WORKER_CRASH, count=0)
        with pytest.raises(ValueError):
            Injection(WORKER_CRASH, shard=-1)
        with pytest.raises(ValueError):
            Injection(SHARD_TIMEOUT, delay=-0.1)
        with pytest.raises(ValueError):
            Injection(RESULT_POISON, flavor="subtle")

    def test_matches_by_site_shard_and_attempt(self):
        injection = Injection(WORKER_CRASH, shard=2, count=2)
        assert injection.matches(WORKER_CRASH, 2, 0)
        assert injection.matches(WORKER_CRASH, 2, 1)
        assert not injection.matches(WORKER_CRASH, 2, 2)  # count exhausted
        assert not injection.matches(WORKER_CRASH, 3, 0)  # other shard
        assert not injection.matches(WORKER_EXIT, 2, 0)  # other site

    def test_wildcard_shard_matches_everywhere(self):
        injection = Injection(WORKER_CRASH)
        assert injection.matches(WORKER_CRASH, 0, 0)
        assert injection.matches(WORKER_CRASH, 99, 0)


class TestFaultPlan:
    def test_builders_accumulate_and_report_sites(self):
        plan = (
            FaultPlan()
            .with_crash(shard=0)
            .with_exit(shard=1)
            .with_hang(shard=3, delay=0.1)
            .with_poison(shard=4, flavor="alien")
        )
        assert plan.sites == frozenset(SITES)
        assert len(plan.injections) == 4

    def test_match_returns_first_firing_injection(self):
        plan = FaultPlan().with_crash(shard=1).with_crash(shard=None, count=3)
        first = plan.match(WORKER_CRASH, 1, 0)
        assert first is plan.injections[0]
        assert plan.match(WORKER_CRASH, 7, 2) is plan.injections[1]
        assert plan.match(WORKER_CRASH, 7, 3) is None

    def test_random_is_deterministic_in_seed(self):
        a = FaultPlan.random(seed=42, n_shards=8)
        b = FaultPlan.random(seed=42, n_shards=8)
        c = FaultPlan.random(seed=43, n_shards=8)
        assert a == b
        assert a != c  # astronomically unlikely collision

    def test_random_respects_bounds(self):
        for seed in range(30):
            plan = FaultPlan.random(seed, n_shards=5, max_faults=4, max_count=3)
            assert 1 <= len(plan.injections) <= 4
            for injection in plan.injections:
                assert injection.site in SITES
                assert 0 <= injection.shard < 5
                assert 1 <= injection.count <= 3

    def test_random_rejects_empty_shard_range(self):
        with pytest.raises(ValueError, match="n_shards"):
            FaultPlan.random(seed=0, n_shards=0)

    def test_plans_and_exceptions_pickle(self):
        plan = FaultPlan.random(seed=7, n_shards=4)
        assert pickle.loads(pickle.dumps(plan)) == plan
        error = FaultInjected(WORKER_CRASH, 3, 1)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.site, clone.shard, clone.attempt) == (WORKER_CRASH, 3, 1)


class TestDelivery:
    def test_fire_is_noop_without_plan(self):
        fire(None, WORKER_CRASH, 0, 0)
        hang(None, 0, 0)
        assert poison(None, 0, 0, {1: {}}, 1, 1) == {1: {}}

    def test_fire_raises_fault_injected(self):
        plan = FaultPlan().with_crash(shard=0)
        with pytest.raises(FaultInjected) as excinfo:
            fire(plan, WORKER_CRASH, 0, 0)
        assert excinfo.value.site == WORKER_CRASH
        fire(plan, WORKER_CRASH, 0, 1)  # count exhausted: no-op

    def test_worker_exit_is_noop_outside_child_process(self):
        # In the main process os._exit would kill the interpreter; the
        # guard must turn the injection into a no-op here.
        plan = FaultPlan().with_exit(shard=0)
        fire(plan, WORKER_EXIT, 0, 0)

    def test_hang_sleeps_for_the_planned_delay(self):
        plan = FaultPlan().with_hang(shard=0, delay=0.05)
        start = time.monotonic()
        hang(plan, 0, 0)
        assert time.monotonic() - start >= 0.05
        start = time.monotonic()
        hang(plan, 1, 0)  # other shard: no sleep
        assert time.monotonic() - start < 0.05

    @pytest.mark.parametrize("flavor", POISON_FLAVORS)
    def test_every_poison_flavor_is_detectable(self, flavor):
        from repro.parallel.engine import _shard_result_ok
        from repro.parallel.plan import Shard

        shard = Shard(3, 5)
        clean = {p: {} for p in shard.periods()}
        assert _shard_result_ok(clean, shard, count_only=True)
        plan = FaultPlan().with_poison(shard=0, flavor=flavor)
        corrupted = poison(plan, 0, 0, clean, 3, 5)
        assert corrupted != clean
        assert not _shard_result_ok(corrupted, shard, count_only=True)


class TestClassification:
    def test_injected_faults_carry_their_site(self):
        assert classify_fault(FaultInjected(WORKER_EXIT, 0, 0)) == WORKER_EXIT
        assert classify_fault(PoisonedShard(0, 1, 2)) == RESULT_POISON

    def test_real_failures_map_onto_the_taxonomy(self):
        from concurrent.futures import BrokenExecutor

        assert classify_fault(TimeoutError()) == SHARD_TIMEOUT
        assert classify_fault(BrokenExecutor()) == WORKER_EXIT
        assert classify_fault(RuntimeError("boom")) == WORKER_CRASH

    def test_event_strings_are_informative(self):
        event = FaultEvent(
            site=WORKER_CRASH, shard=2, lo=10, hi=19, attempt=1,
            backend="process", action="retry", error="RuntimeError('x')",
        )
        text = str(event)
        assert "worker.crash" in text and "retry" in text and "shard 2" in text
        fallback = FallbackEvent("process", "thread", "pool broke", 3)
        assert "process -> thread" in str(fallback)


class TestEngineValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            ParallelWitnessEngine(shard_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ParallelWitnessEngine(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ParallelWitnessEngine(retry_backoff=-0.5)
        with pytest.raises(ValueError, match="on_fault"):
            ParallelWitnessEngine(on_fault="explode")

    def test_registries_are_consistent(self):
        assert FALLBACK_CHAIN == ("process", "thread", "serial")
        assert FAULT_POLICIES == ("fallback", "raise")

    def test_miner_rejects_bad_knobs_eagerly(self):
        with pytest.raises(ValueError, match="on_fault"):
            ConvolutionMiner(engine="parallel", on_fault="explode")
        with pytest.raises(ValueError, match="shard_timeout"):
            ConvolutionMiner(engine="parallel", shard_timeout=-1)


class TestRecoveryPaths:
    """Each recovery mechanism, pinned on the thread backend (fast)."""

    def _engine(self, plan, **kwargs):
        kwargs.setdefault("workers", 4)
        kwargs.setdefault("mode", "thread")
        kwargs.setdefault("retry_backoff", 0.0)
        return ParallelWitnessEngine(fault_plan=plan, **kwargs)

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(20040314)
        series = rng.integers(0, 4, size=400).tolist()
        seq = _sequence(series, sigma=4)
        max_period = seq.length // 2
        serial = _serial_reference(
            seq.codes, seq.sigma, max_period, count_only=True
        )
        return seq.codes, seq.sigma, max_period, serial

    def test_crash_recovers_by_retry(self, workload):
        codes, sigma, maxp, serial = workload
        engine = self._engine(FaultPlan().with_crash(shard=0))
        assert engine.f2_tables(codes, sigma, maxp) == serial
        (event,) = engine.events
        assert isinstance(event, FaultEvent)
        assert (event.site, event.action, event.shard) == (
            WORKER_CRASH, "retry", 0,
        )

    def test_timeout_recovers_by_retry(self, workload):
        codes, sigma, maxp, serial = workload
        engine = self._engine(
            FaultPlan().with_hang(shard=1, delay=1.0), shard_timeout=0.2
        )
        assert engine.f2_tables(codes, sigma, maxp) == serial
        (event,) = engine.events
        assert (event.site, event.action) == (SHARD_TIMEOUT, "retry")

    @pytest.mark.parametrize("flavor", POISON_FLAVORS)
    def test_poison_recovers_by_retry(self, workload, flavor):
        codes, sigma, maxp, serial = workload
        engine = self._engine(FaultPlan().with_poison(shard=2, flavor=flavor))
        assert engine.f2_tables(codes, sigma, maxp) == serial
        (event,) = engine.events
        assert (event.site, event.action) == (RESULT_POISON, "retry")

    def test_exhausted_retries_fall_back_to_serial(self, workload):
        codes, sigma, maxp, serial = workload
        engine = self._engine(
            FaultPlan().with_crash(shard=0, count=99), max_retries=1
        )
        assert engine.f2_tables(codes, sigma, maxp) == serial
        fallbacks = [e for e in engine.events if isinstance(e, FallbackEvent)]
        (fallback,) = fallbacks
        assert (fallback.from_backend, fallback.to_backend) == (
            "thread", "serial",
        )
        # Only the poisoned shard and later arrivals re-dispatch; the
        # completed shards were salvaged.
        assert 1 <= fallback.redispatched
        faults = [e for e in engine.events if isinstance(e, FaultEvent)]
        assert [e.attempt for e in faults] == [0, 1]
        assert faults[-1].action == "fallback"

    def test_raise_policy_aborts(self, workload):
        codes, sigma, maxp, _ = workload
        engine = self._engine(
            FaultPlan().with_crash(shard=0, count=99),
            max_retries=0,
            on_fault="raise",
        )
        with pytest.raises(ShardFailure, match="exhausted 0 retries"):
            engine.f2_tables(codes, sigma, maxp)

    def test_events_reset_between_runs(self, workload):
        codes, sigma, maxp, serial = workload
        engine = self._engine(FaultPlan().with_crash(shard=0))
        engine.f2_tables(codes, sigma, maxp)
        assert engine.events
        clean = ParallelWitnessEngine(workers=4, mode="thread")
        clean.f2_tables(codes, sigma, maxp)
        assert clean.events == ()

    def test_witness_sets_recover_identically(self, workload):
        codes, sigma, maxp, _ = workload
        serial = _serial_reference(codes, sigma, maxp, count_only=False)
        engine = self._engine(
            FaultPlan().with_crash(shard=0).with_poison(shard=3, flavor="none")
        )
        assert _witnesses_equal(
            engine.witness_sets(codes, sigma, maxp), serial
        )


class TestProcessRecovery:
    """Process-backend paths: faults in worker processes, pool death, salvage."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(20040314)
        series = rng.integers(0, 4, size=600).tolist()
        seq = _sequence(series, sigma=4)
        max_period = seq.length // 2
        serial = _serial_reference(
            seq.codes, seq.sigma, max_period, count_only=True
        )
        return seq.codes, seq.sigma, max_period, serial

    def test_worker_exit_degrades_to_thread_backend(self, workload):
        codes, sigma, maxp, serial = workload
        engine = ParallelWitnessEngine(
            workers=4, mode="process", retry_backoff=0.0,
            fault_plan=FaultPlan().with_exit(shard=5),
        )
        assert engine.f2_tables(codes, sigma, maxp) == serial
        fallbacks = [e for e in engine.events if isinstance(e, FallbackEvent)]
        (fallback,) = fallbacks
        assert (fallback.from_backend, fallback.to_backend) == (
            "process", "thread",
        )
        plan = engine.plan(maxp, n=codes.size)
        # Completed shards were salvaged: strictly fewer than the whole
        # plan went back through the thread backend.
        assert fallback.redispatched < len(plan.shards)

    def test_acceptance_crash_timeout_single_run(self, workload):
        """One run surviving a worker crash and a shard timeout in
        worker processes still matches serial."""
        codes, sigma, maxp, serial = workload
        plan = (
            FaultPlan()
            .with_crash(shard=0)
            .with_hang(shard=2, delay=2.0)
        )
        engine = ParallelWitnessEngine(
            workers=4, mode="process", shard_timeout=0.75,
            retry_backoff=0.0, fault_plan=plan,
        )
        assert engine.f2_tables(codes, sigma, maxp) == serial
        sites = {e.site for e in engine.events if isinstance(e, FaultEvent)}
        assert {WORKER_CRASH, SHARD_TIMEOUT} <= sites
        assert all(
            e.action == "retry"
            for e in engine.events
            if isinstance(e, FaultEvent)
        )


class TestMinerIntegration:
    def test_miner_with_faults_matches_serial_table(self):
        rng = np.random.default_rng(99)
        series = rng.integers(0, 4, size=500).tolist()
        seq = SymbolSequence.from_symbols(series)
        serial = ConvolutionMiner(engine="bitand").periodicity_table(seq)
        plan = (
            FaultPlan()
            .with_crash(shard=0)
            .with_hang(shard=1, delay=1.0)
            .with_poison(shard=2, flavor="drop")
        )
        miner = ConvolutionMiner(
            engine="parallel", workers=4, shard_timeout=0.4,
            retry_backoff=0.0, fault_plan=plan,
        )
        assert miner.periodicity_table(seq) == serial
        assert {e.site for e in miner.fault_events if isinstance(e, FaultEvent)}

    def test_acceptance_process_backend_through_miner(self, monkeypatch):
        """Acceptance at the API surface: crash + shard timeout in one
        ``ConvolutionMiner`` run over the process backend,
        byte-identical table, events reported."""
        rng = np.random.default_rng(20040314)
        alphabet = Alphabet("abcdefghijklmnop")
        codes = rng.integers(0, 16, size=16384)
        seq = SymbolSequence.from_codes(codes, alphabet)
        serial = ConvolutionMiner(
            engine="bitand", max_period=256
        ).periodicity_table(seq)
        plan = (
            FaultPlan()
            .with_crash(shard=0)
            .with_hang(shard=2, delay=2.5)
        )
        miner = ConvolutionMiner(
            engine="parallel", max_period=256, workers=4,
            shard_timeout=1.0, retry_backoff=0.0, fault_plan=plan,
        )
        # The planner must actually pick the process backend here; its
        # length threshold is lowered so the series stays small.
        monkeypatch.setattr(plan_module, "_PROCESS_MIN_LENGTH", 16384)
        probe = miner._parallel_engine().plan(256, n=16384)
        assert probe.use_processes
        assert miner.periodicity_table(seq) == serial
        sites = {
            e.site for e in miner.fault_events if isinstance(e, FaultEvent)
        }
        assert {WORKER_CRASH, SHARD_TIMEOUT} <= sites

    def test_serial_engines_report_no_events(self):
        seq = SymbolSequence.from_string("abcabcabc")
        miner = ConvolutionMiner(engine="bitand")
        miner.periodicity_table(seq)
        assert miner.fault_events == ()

    def test_mine_facade_threads_fault_knobs(self):
        from repro.core import mine

        rng = np.random.default_rng(5)
        series = rng.integers(0, 3, size=200).tolist()
        seq = SymbolSequence.from_symbols(series)
        reference = mine(
            seq, psi=0.5, algorithm="convolution", engine="bitand",
            periods=[],
        )
        faulted = mine(
            seq,
            psi=0.5,
            algorithm="convolution",
            engine="parallel",
            workers=4,
            shard_timeout=5.0,
            max_retries=3,
            retry_backoff=0.0,
            on_fault="fallback",
            fault_plan=FaultPlan().with_crash(shard=0),
            periods=[],
        )
        assert faulted.table == reference.table
        assert faulted.periodicities == reference.periodicities

    def test_cli_exposes_fault_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "mine", "series.txt", "--psi", "0.5",
                "--engine", "parallel", "--shard-timeout", "2.5",
                "--max-retries", "4", "--on-fault", "raise",
            ]
        )
        assert args.shard_timeout == 2.5
        assert args.max_retries == 4
        assert args.on_fault == "raise"

    def test_pipeline_accepts_fault_knobs(self):
        from repro.pipeline import PeriodicityPipeline

        pipeline = PeriodicityPipeline(
            algorithm="convolution", engine="parallel",
            shard_timeout=1.0, max_retries=1, on_fault="raise",
        )
        rng = np.random.default_rng(11)
        series = SymbolSequence.from_symbols(
            rng.integers(0, 3, size=120).tolist()
        )
        report = pipeline.run(series)
        assert report.series is series
