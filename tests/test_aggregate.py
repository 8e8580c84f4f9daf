"""Tests for repro.analysis.aggregate."""

import numpy as np
import pytest

from repro.analysis import consensus_periods, mine_many
from repro.core import ConvolutionMiner
from repro.data import (
    PowerConsumptionSimulator,
    apply_noise,
    generate_periodic,
    generate_random,
)


class TestMineMany:
    def test_one_table_per_series(self, rng):
        collection = [generate_periodic(200, 7, 4, rng=rng) for _ in range(3)]
        tables = mine_many(collection, max_period=20)
        assert len(tables) == 3
        assert all(t.n == 200 for t in tables)

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError):
            mine_many([])


    def test_mean_confidence_is_the_mean_of_exact_confidences(self):
        # Below the mining threshold a psi-bounded table truncates the
        # confidence; the full tables average the exact ones.
        collection = [
            apply_noise(
                generate_periodic(2000, 7, 4, rng=np.random.default_rng(seed)),
                0.45, "R", np.random.default_rng(100 + seed),
            )
            for seed in range(3)
        ]
        tables = mine_many(collection, max_period=20)
        exact = [
            ConvolutionMiner(engine="parallel", max_period=20)
            .periodicity_table(series)
            .confidence(7)
            for series in collection
        ]
        seven = next(
            c for c in consensus_periods(tables, psi=0.3, min_prevalence=0.3)
            if c.period == 7
        )
        assert max(exact) < 0.8
        assert seven.mean_confidence == pytest.approx(np.mean(exact), abs=1e-12)


class TestConsensus:
    def test_shared_period_reaches_consensus(self, rng):
        customers = [
            PowerConsumptionSimulator().series(np.random.default_rng(seed))
            for seed in range(5)
        ]
        tables = mine_many(customers, max_period=30)
        consensus = consensus_periods(tables, psi=0.6, min_prevalence=0.8)
        assert any(c.period == 7 for c in consensus)

    def test_idiosyncratic_period_filtered(self, rng):
        # Four random series plus one strongly periodic one: the periodic
        # structure of the odd one out must not reach 50% prevalence.
        collection = [generate_random(300, 6, rng=rng) for _ in range(4)]
        collection.append(generate_periodic(300, 13, 6, rng=rng))
        tables = mine_many(collection, max_period=40)
        consensus = consensus_periods(tables, psi=0.9, min_prevalence=0.5)
        assert all(c.period != 13 for c in consensus)

    def test_prevalence_and_confidence_fields(self, rng):
        collection = [generate_periodic(150, 6, 4, rng=rng) for _ in range(4)]
        tables = mine_many(collection, max_period=12)
        consensus = consensus_periods(tables, psi=0.9, min_prevalence=1.0)
        six = next(c for c in consensus if c.period == 6)
        assert six.detections == 4
        assert six.prevalence == 1.0
        assert six.mean_confidence == pytest.approx(1.0)

    def test_sorted_strongest_first(self, rng):
        collection = [generate_periodic(200, 8, 4, rng=rng) for _ in range(3)]
        tables = mine_many(collection, max_period=30)
        consensus = consensus_periods(tables, psi=0.5, min_prevalence=0.3)
        keys = [(-c.prevalence, -c.mean_confidence, c.period) for c in consensus]
        assert keys == sorted(keys)

    def test_rejects_bad_prevalence(self, rng):
        tables = mine_many([generate_periodic(50, 5, 3, rng=rng)])
        with pytest.raises(ValueError):
            consensus_periods(tables, 0.5, min_prevalence=0.0)

    def test_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            consensus_periods([], 0.5)
