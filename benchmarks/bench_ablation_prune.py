"""Ablation — the spectral miner's match-count bound.

The spectral miner bounds every per-position count by the aggregate
``M_k(p)``, the row sum of the count kernel's own output, and drops the
``(period, symbol)`` cells that cannot reach the threshold.  Every
period is still counted, so the bound saves no compare work; it only
shrinks the table, and the later queries with it.  It bites hardest when
periodic symbols are *sparse* — exactly the event-log workload (a
heartbeat every 60 slots matches itself at few shifts) — so that is the
data mined here, with the bound off (full table) versus on (psi = 0.7).
A final check re-asserts that the bound never changes what is mined at
the threshold.
"""

import numpy as np
import pytest

from repro.core import SpectralMiner
from repro.data import EventLogSimulator
from repro.experiments import format_table

from _bench_utils import record

PSI = 0.7
MAX_PERIOD = 512


@pytest.fixture(scope="module")
def series():
    # A wide, sparse alphabet: thirty background event types plus the two
    # planted jobs.  Every symbol is rare, so the M_k(p) bound prunes the
    # bulk of the (period, symbol) grid.
    simulator = EventLogSimulator(
        length=20_000,
        background_events=tuple(f"e{i}" for i in range(30)),
    )
    return simulator.series(np.random.default_rng(2004))


@pytest.mark.benchmark(group="ablation-prune")
def test_unpruned_full_table(benchmark, series):
    miner = SpectralMiner(psi=None, max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.confidence(60) > 0.8


@pytest.mark.benchmark(group="ablation-prune")
def test_pruned_table(benchmark, series):
    miner = SpectralMiner(psi=PSI, max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.confidence(60) > 0.8


@pytest.mark.benchmark(group="ablation-prune")
def test_pruning_is_lossless_at_threshold(benchmark, series):
    def run():
        full = SpectralMiner(psi=None, max_period=MAX_PERIOD).periodicity_table(series)
        pruned = SpectralMiner(psi=PSI, max_period=MAX_PERIOD).periodicity_table(series)
        return full, pruned

    full, pruned = benchmark.pedantic(run, rounds=1, iterations=1)
    full_hits = {
        (h.period, h.position, h.symbol_code, h.f2)
        for h in full.periodicities(PSI)
    }
    pruned_hits = {
        (h.period, h.position, h.symbol_code, h.f2)
        for h in pruned.periodicities(PSI)
    }
    assert full_hits == pruned_hits
    kept_full = sum(len(full.counts_for(p)) for p in full.periods)
    kept_pruned = sum(len(pruned.counts_for(p)) for p in pruned.periods)
    record(
        "ablation_prune",
        format_table(
            ["variant", "table cells"],
            [["unpruned (psi=None)", kept_full], [f"pruned (psi={PSI})", kept_pruned]],
            title="Ablation: the M_k(p) bound keeps the table sparse",
        ),
    )
    assert kept_pruned < kept_full
