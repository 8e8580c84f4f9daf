"""The sharded parallel exact engine, hardened against partial failure.

Counts the paper's witness sets for a whole period range by fanning
contiguous period shards (:mod:`repro.parallel.plan`) out over a
process pool, with a thread pool or a plain in-process loop as the
small-input fallbacks.  Every shard runs the one exact kernel: a
shifted compare of the codes (``t_j = t_{j+p}``), which finds exactly
the matches that the convolution component ``W_p`` witnesses.  Each
task receives the codes in the narrowest unsigned dtype
(:func:`repro.core.projection.narrow_codes`); every compare needs the
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
  turns into the table's columns without per-cell Python;
  :meth:`ParallelWitnessEngine.f2_tables` gives the same counts as
  ``{(symbol, position): count}`` dicts.

Fault tolerance
---------------

A mine over a one-pass stream cannot be restarted, so a single worker
crash or hung shard must not abort the run.  The engine recovers in
three nested layers, each observable through
:class:`repro.faults.FaultEvent` / :class:`~repro.faults.FallbackEvent`
records (``events`` property, mirrored to the ``repro.parallel.faults``
logger):

1. **per-shard timeout** — ``shard_timeout`` bounds how long the
   parent waits for any one shard before treating it as hung;
2. **bounded retry with exponential backoff** — a failed or timed-out
   shard is re-dispatched to the surviving workers up to
   ``max_retries`` times, sleeping ``retry_backoff * 2**attempt``
   between dispatches; results that fail the integrity check (exact
   period-key cover plus value types, and for counts equal lengths,
   keys in ``[0, sigma * p)`` and positive counts) count as faults
   too;
3. **backend degradation** — when a shard exhausts its retries or the
   pool itself breaks (a dead worker process takes the whole
   ``ProcessPoolExecutor`` with it), completed shard results are kept
   and only the remainder is re-dispatched one step down the
   ``process -> thread -> serial`` chain (:data:`FALLBACK_CHAIN`).
   The serial step runs in-process, injects nothing, and cannot fail,
   so under the default ``on_fault="fallback"`` policy the engine
   always returns a table identical to the serial engines;
   ``on_fault="raise"`` aborts instead with :class:`ShardFailure`
   (:data:`FAULT_POLICIES` names both policies).

Deterministic fault injection (:mod:`repro.faults`) threads a
``fault_plan`` into every worker so each recovery path is provable in
tests rather than waited for in production.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

import numpy as np

from ..core.mapping import period_witnesses
from ..core.projection import f2_counts_for_period, f2_table_from_keys, narrow_codes
from ..faults import (
    FAULT_LOGGER,
    WORKER_CRASH,
    WORKER_EXIT,
    FallbackEvent,
    FaultEvent,
    FaultPlan,
    PoisonedShard,
    classify_fault,
    fire,
    hang,
    poison,
)
from .plan import Shard, ShardPlan, plan_shards

__all__ = [
    "ParallelWitnessEngine",
    "ShardFailure",
    "FALLBACK_CHAIN",
    "FAULT_POLICIES",
]

#: the degradation order: each backend hands unfinished shards to the
#: next; the final ``serial`` step runs in-process and cannot fail.
FALLBACK_CHAIN: tuple[str, ...] = ("process", "thread", "serial")

#: what to do when a shard exhausts its retries (or the pool breaks):
#: ``fallback`` degrades down :data:`FALLBACK_CHAIN`, ``raise`` aborts
#: the run with :class:`ShardFailure`.
FAULT_POLICIES: tuple[str, ...] = ("fallback", "raise")


#: validates one shard's result: ``check(value, shard)``.
_ResultCheck = Callable[[object, Shard], bool]


class ShardFailure(RuntimeError):
    """A shard could not be completed under ``on_fault="raise"``."""


class _BackendBroken(RuntimeError):
    """Internal: the current backend cannot finish its pending shards."""

    def __init__(
        self, backend: str, reason: str, cause: BaseException | None
    ) -> None:
        super().__init__(f"{backend} backend failed: {reason}")
        self.backend = backend
        self.reason = reason
        self.cause = cause


def _mine_shard(
    codes: np.ndarray,
    sigma: int,
    lo: int,
    hi: int,
    count_only: bool,
    shard_index: int = 0,
    attempt: int = 0,
    faults: FaultPlan | None = None,
) -> dict[int, object]:
    """Count one shard's periods; the pool entry point of every backend."""
    fire(faults, WORKER_CRASH, shard_index, attempt)
    fire(faults, WORKER_EXIT, shard_index, attempt)
    hang(faults, shard_index, attempt)
    out: dict[int, object] = {}
    for p in range(lo, hi + 1):
        if count_only:
            vector = f2_counts_for_period(codes, sigma, p)
            keys = np.flatnonzero(vector)
            out[p] = (keys, vector[keys])
        else:
            out[p] = period_witnesses(codes, sigma, p)
    return poison(faults, shard_index, attempt, out, lo, hi)


def _shard_result_ok(
    value: object, shard: Shard, sigma: int, count_only: bool
) -> bool:
    """Integrity check: exact period-key cover plus plausible values.

    Catches poisoned/truncated shard results before they merge into
    the table; a failed check is treated like any other shard fault
    (retry, then fallback).
    """
    if not isinstance(value, dict) or set(value) != set(shard.periods()):
        return False
    if not count_only:
        return all(isinstance(v, np.ndarray) for v in value.values())
    return all(_period_keys_ok(v, sigma, p) for p, v in value.items())


def _period_keys_ok(value: object, sigma: int, p: int) -> bool:
    """One period's ``(keys, counts)``: equal lengths, keys in
    ``[0, sigma * p)``, positive counts."""
    if not (
        isinstance(value, tuple)
        and len(value) == 2
        and all(isinstance(a, np.ndarray) and a.ndim == 1 for a in value)
    ):
        return False
    keys, counts = value
    return keys.size == counts.size and bool(
        keys.size == 0
        or (keys.min() >= 0 and keys.max() < sigma * p and counts.min() > 0)
    )


class ParallelWitnessEngine:
    """Sharded evaluator of every period's witnesses or ``F2`` table.

    Parameters
    ----------
    workers:
        Worker cap (default: CPU count).
    mode:
        ``"auto"`` (default), ``"process"``, or ``"thread"`` — forwarded
        to the shard planner; ``"auto"`` picks processes only when the
        input is large enough to amortise the pool.
    shard_timeout:
        Seconds the parent waits for any one shard before treating it
        as hung and re-dispatching (``None``: wait forever).
    max_retries:
        Re-dispatches granted to a failing shard per backend before
        the backend is declared broken.
    retry_backoff:
        Base of the exponential backoff between re-dispatches
        (``retry_backoff * 2**attempt`` seconds; ``0`` disables).
    on_fault:
        ``"fallback"`` (default) degrades down
        ``process -> thread -> serial`` and always completes;
        ``"raise"`` aborts with :class:`ShardFailure` instead.
    fault_plan:
        Deterministic :class:`repro.faults.FaultPlan` injected into
        workers (testing/chaos drills; ``None`` in production).
    """

    def __init__(
        self,
        workers: int | None = None,
        mode: str = "auto",
        *,
        shard_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.01,
        on_fault: str = "fallback",
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("auto", "process", "thread"):
            raise ValueError(f"unknown mode {mode!r}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if on_fault not in FAULT_POLICIES:
            raise ValueError(
                f"unknown on_fault policy {on_fault!r} "
                f"(choose from {FAULT_POLICIES})"
            )
        self._workers = workers
        self._mode = mode
        self._shard_timeout = shard_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._on_fault = on_fault
        self._fault_plan = fault_plan
        self._events: list[FaultEvent | FallbackEvent] = []

    @property
    def events(self) -> tuple[FaultEvent | FallbackEvent, ...]:
        """Fault/fallback records of the most recent run (oldest first)."""
        return tuple(self._events)

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

    def f2_tables(
        self, codes: np.ndarray, sigma: int, max_period: int
    ) -> dict[int, dict[tuple[int, int], int]]:
        """The ``F2`` table ``{(symbol, position): count}`` of every period."""
        return {
            p: f2_table_from_keys(keys, counts, p)
            for p, (keys, counts) in self.f2_keys(codes, sigma, max_period).items()
        }

    def plan(self, max_period: int, n: int) -> ShardPlan:
        """The shard plan this engine would execute (exposed for tests)."""
        return plan_shards(
            max_period, n=n, workers=self._workers, mode=self._mode
        )

    # -- execution -------------------------------------------------------------

    def _run(
        self, codes: np.ndarray, sigma: int, max_period: int, count_only: bool
    ) -> dict[int, object]:
        codes = narrow_codes(np.asarray(codes), sigma)
        plan = self.plan(max_period, n=codes.size)
        self._events = []
        if not plan.shards:
            return {}
        if len(plan.shards) == 1:
            # One shard = the serial last resort already; no pool to
            # fail, no faults injected.
            only = plan.shards[0]
            return _mine_shard(codes, sigma, only.lo, only.hi, count_only)
        pending = dict(enumerate(plan.shards))
        done: dict[int, dict[int, object]] = {}
        chain = FALLBACK_CHAIN if plan.use_processes else FALLBACK_CHAIN[1:]
        for position, backend in enumerate(chain):
            try:
                self._run_backend(
                    backend, plan, codes, sigma, count_only, pending, done
                )
            except _BackendBroken as broken:
                if self._on_fault == "raise":
                    raise ShardFailure(str(broken)) from broken.cause
                # The serial tail of the chain cannot break, so there
                # is always a next backend here.
                fallback = FallbackEvent(
                    from_backend=backend,
                    to_backend=chain[position + 1],
                    reason=broken.reason,
                    redispatched=len(pending),
                )
                self._events.append(fallback)
                FAULT_LOGGER.warning("%s", fallback)
                continue
            break
        merged: dict[int, object] = {}
        for index in sorted(done):
            merged.update(done[index])
        return merged

    def _run_backend(
        self,
        backend: str,
        plan: ShardPlan,
        codes: np.ndarray,
        sigma: int,
        count_only: bool,
        pending: dict[int, Shard],
        done: dict[int, dict[int, object]],
    ) -> None:
        if backend == "serial":
            for index in sorted(pending):
                shard = pending[index]
                done[index] = _mine_shard(
                    codes, sigma, shard.lo, shard.hi, count_only
                )
                del pending[index]
            return
        try:
            pool: ProcessPoolExecutor | ThreadPoolExecutor = (
                ProcessPoolExecutor(max_workers=plan.workers)
                if backend == "process"
                else ThreadPoolExecutor(max_workers=plan.workers)
            )
        except OSError as error:
            raise _BackendBroken(
                backend, f"pool spawn failed: {error!r}", error
            ) from error
        try:
            faults = self._fault_plan

            def submit(
                index: int, shard: Shard, attempt: int
            ) -> "Future[dict[int, object]]":
                return pool.submit(
                    _mine_shard,
                    codes,
                    sigma,
                    shard.lo,
                    shard.hi,
                    count_only,
                    index,
                    attempt,
                    faults,
                )

            check = functools.partial(
                _shard_result_ok, sigma=sigma, count_only=count_only
            )
            self._drain(backend, submit, check, pending, done)
        finally:
            # wait=False: a hung (or abandoned timed-out) worker must
            # not stall completed results; cancel_futures drops
            # anything still queued.
            pool.shutdown(wait=False, cancel_futures=True)

    def _drain(
        self,
        backend: str,
        submit: Callable[[int, Shard, int], "Future[dict[int, object]]"],
        check: _ResultCheck,
        pending: dict[int, Shard],
        done: dict[int, dict[int, object]],
    ) -> None:
        """Dispatch every pending shard; retry faults; harvest results.

        Mutates ``pending``/``done`` in place so a :class:`_BackendBroken`
        escape leaves exactly the unfinished shards for the next
        backend — completed work is never recomputed.
        """
        attempts = dict.fromkeys(pending, 0)
        futures: dict[int, "Future[dict[int, object]]"] = {}
        try:
            for index in sorted(pending):
                futures[index] = submit(index, pending[index], 0)
        except BrokenExecutor as error:
            raise _BackendBroken(
                backend, f"executor broke on submit: {error!r}", error
            ) from error
        while futures:
            index = min(futures)
            future = futures.pop(index)
            shard = pending[index]
            try:
                value = future.result(timeout=self._shard_timeout)
                if not check(value, shard):
                    raise PoisonedShard(index, shard.lo, shard.hi)
            except Exception as error:
                future.cancel()
                self._handle_fault(
                    backend,
                    submit,
                    check,
                    error,
                    index,
                    shard,
                    attempts,
                    futures,
                    pending,
                    done,
                )
            else:
                done[index] = value
                del pending[index]

    def _handle_fault(
        self,
        backend: str,
        submit: Callable[[int, Shard, int], "Future[dict[int, object]]"],
        check: _ResultCheck,
        error: Exception,
        index: int,
        shard: Shard,
        attempts: dict[int, int],
        futures: dict[int, "Future[dict[int, object]]"],
        pending: dict[int, Shard],
        done: dict[int, dict[int, object]],
    ) -> None:
        attempt = attempts[index]
        site = classify_fault(error)
        broken = isinstance(error, BrokenExecutor)
        exhausted = attempt >= self._max_retries
        if broken or exhausted:
            action = "fallback" if self._on_fault == "fallback" else "raise"
        else:
            action = "retry"
        event = FaultEvent(
            site=site,
            shard=index,
            lo=shard.lo,
            hi=shard.hi,
            attempt=attempt,
            backend=backend,
            action=action,
            error=repr(error),
        )
        self._events.append(event)
        FAULT_LOGGER.warning("%s", event)
        if broken or exhausted:
            self._harvest(futures, check, pending, done)
            reason = (
                f"shard {index} ({site}) broke the executor"
                if broken
                else f"shard {index} ({site}) exhausted "
                f"{self._max_retries} retries"
            )
            raise _BackendBroken(backend, reason, error) from error
        if self._retry_backoff > 0:
            time.sleep(self._retry_backoff * (2.0 ** attempt))
        attempts[index] = attempt + 1
        try:
            futures[index] = submit(index, shard, attempts[index])
        except BrokenExecutor as submit_error:
            self._harvest(futures, check, pending, done)
            raise _BackendBroken(
                backend,
                f"executor broke on re-dispatch: {submit_error!r}",
                submit_error,
            ) from submit_error

    def _harvest(
        self,
        futures: dict[int, "Future[dict[int, object]]"],
        check: _ResultCheck,
        pending: dict[int, Shard],
        done: dict[int, dict[int, object]],
    ) -> None:
        """Salvage already-finished shards before abandoning a backend."""
        for index, future in list(futures.items()):
            if not future.done():
                future.cancel()
                continue
            try:
                value = future.result(timeout=0)
            except Exception:
                continue  # its fault will be retried on the next backend
            if check(value, pending[index]):
                done[index] = value
                del pending[index]
        futures.clear()
