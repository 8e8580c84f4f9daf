"""Deterministic fault plans: *what* fails, *where*, and *how often*.

A :class:`FaultPlan` is pure data — a tuple of :class:`Injection`
records keyed by ``(site, shard, attempt)`` — so a plan is

* **deterministic**: whether a fault fires depends only on the named
  injection site, the shard index, and the dispatch attempt number,
  never on wall-clock time or scheduling order;
* **picklable**: plans travel into process-pool workers as plain
  frozen dataclasses, so the same plan governs the parent and every
  worker;
* **seedable**: :meth:`FaultPlan.random` derives a whole plan from one
  integer seed, which is what the differential fuzzing harness sweeps.

The streaming-periodicity setting (Ergün et al.) is one pass over data
that cannot be replayed; a mine that aborts mid-pass loses the pass.
The plan's job is to make every partial-failure mode reproducible on
demand so the engine's recovery paths can be proven equivalent to the
serial engine, not just believed.

Injection sites
---------------

========================  ====================================================
``worker.crash``          the shard computation raises mid-shard
``worker.exit``           the worker process dies hard (``os._exit``),
                          breaking the whole process pool; never fired
                          outside a child process
``shard.timeout``         the shard hangs (sleeps ``delay`` seconds) so the
                          parent's per-shard timeout expires
``result.poison``         the shard returns a corrupted result (period keys
                          dropped/added, or values of the wrong type)
========================  ====================================================

An :class:`Injection` fires while ``attempt < count``; with ``count``
at most the engine's retry budget the shard recovers in place, above
it the shard exhausts its retries and forces a backend fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

__all__ = [
    "Injection",
    "FaultPlan",
    "SITES",
    "POISON_FLAVORS",
    "WORKER_CRASH",
    "WORKER_EXIT",
    "SHARD_TIMEOUT",
    "RESULT_POISON",
]

WORKER_CRASH = "worker.crash"
WORKER_EXIT = "worker.exit"
SHARD_TIMEOUT = "shard.timeout"
RESULT_POISON = "result.poison"

#: every named injection site, in documentation order.
SITES: tuple[str, ...] = (
    WORKER_CRASH,
    WORKER_EXIT,
    SHARD_TIMEOUT,
    RESULT_POISON,
)

#: how a poisoned shard result is corrupted: ``drop`` removes the
#: highest period key, ``alien`` adds a period outside the shard,
#: ``none`` replaces one value with ``None``.
POISON_FLAVORS: tuple[str, ...] = ("drop", "alien", "none")


@dataclass(frozen=True, slots=True)
class Injection:
    """One planned fault: fire ``site`` at ``shard`` while ``attempt < count``.

    Parameters
    ----------
    site:
        One of :data:`SITES`.
    shard:
        Shard index the fault targets; ``None`` targets every shard.
    count:
        Number of consecutive attempts that fail before the shard is
        allowed to succeed (attempts are numbered from 0 per backend).
    delay:
        Sleep length in seconds for ``shard.timeout`` injections.
    flavor:
        Corruption style for ``result.poison`` injections
        (:data:`POISON_FLAVORS`).
    """

    site: str
    shard: int | None = None
    count: int = 1
    delay: float = 0.25
    flavor: str = "drop"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown injection site {self.site!r}")
        if self.shard is not None and self.shard < 0:
            raise ValueError("shard index must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.flavor not in POISON_FLAVORS:
            raise ValueError(f"unknown poison flavor {self.flavor!r}")

    def matches(self, site: str, shard: int, attempt: int) -> bool:
        """Does this injection fire at ``(site, shard, attempt)``?"""
        return (
            self.site == site
            and (self.shard is None or self.shard == shard)
            and attempt < self.count
        )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic set of injections governing one mining run."""

    injections: tuple[Injection, ...] = field(default_factory=tuple)

    def match(self, site: str, shard: int, attempt: int) -> Injection | None:
        """The first injection firing at ``(site, shard, attempt)``."""
        for injection in self.injections:
            if injection.matches(site, shard, attempt):
                return injection
        return None

    @property
    def sites(self) -> frozenset[str]:
        """The distinct sites this plan injects at."""
        return frozenset(injection.site for injection in self.injections)

    def _with(self, injection: Injection) -> "FaultPlan":
        return replace(self, injections=self.injections + (injection,))

    # -- chainable builders ----------------------------------------------------

    def with_crash(self, shard: int | None = None, count: int = 1) -> "FaultPlan":
        """Add a worker crash (an exception mid-shard)."""
        return self._with(Injection(WORKER_CRASH, shard, count))

    def with_exit(self, shard: int | None = None, count: int = 1) -> "FaultPlan":
        """Add a hard worker death (breaks the whole process pool)."""
        return self._with(Injection(WORKER_EXIT, shard, count))

    def with_hang(
        self, shard: int | None = None, count: int = 1, delay: float = 0.25
    ) -> "FaultPlan":
        """Add a shard hang of ``delay`` seconds (trips the timeout)."""
        return self._with(Injection(SHARD_TIMEOUT, shard, count, delay=delay))

    def with_poison(
        self, shard: int | None = None, count: int = 1, flavor: str = "drop"
    ) -> "FaultPlan":
        """Add a corrupted shard result."""
        return self._with(Injection(RESULT_POISON, shard, count, flavor=flavor))

    @classmethod
    def random(
        cls,
        seed: int,
        n_shards: int,
        *,
        sites: tuple[str, ...] = SITES,
        max_faults: int = 3,
        max_count: int = 4,
        delay: float = 0.2,
    ) -> "FaultPlan":
        """A seeded random plan over ``n_shards`` shards.

        The same ``(seed, n_shards, ...)`` always yields the same plan
        — the fuzz harness's whole contract.  ``max_count`` above the
        engine's retry budget makes exhaustion (and therefore backend
        fallback) reachable; at or below it every fault recovers by
        retry.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        rng = random.Random(seed)
        injections = tuple(
            Injection(
                site=rng.choice(sites),
                shard=rng.randrange(n_shards),
                count=rng.randint(1, max_count),
                delay=delay,
                flavor=rng.choice(POISON_FLAVORS),
            )
            for _ in range(rng.randint(1, max_faults))
        )
        return cls(injections)
