"""Tests for repro.core.spectral_miner."""

import numpy as np
import pytest

from repro.baselines import brute_force_table
from repro.core import Alphabet, SpectralMiner, SymbolSequence

from conftest import random_series


class TestMatchCounts:
    def test_counts_against_definition(self, paper_series):
        counts = SpectralMiner().match_counts(paper_series)
        codes = paper_series.codes
        for k in range(paper_series.sigma):
            assert counts[k, 0] == np.count_nonzero(codes == k)
            for p in range(1, paper_series.length // 2 + 1):
                expected = np.count_nonzero((codes[:-p] == k) & (codes[p:] == k))
                assert counts[k, p] == expected

    def test_shape(self, paper_series):
        counts = SpectralMiner(max_period=4).match_counts(paper_series)
        assert counts.shape == (paper_series.sigma, 5)

    def test_empty_series(self):
        series = SymbolSequence.from_codes([], Alphabet("ab"))
        counts = SpectralMiner().match_counts(series)
        assert counts.size == 0 or counts.shape[1] == 1


class TestCandidatePeriodSymbols:
    def test_perfectly_periodic_symbol(self):
        series = SymbolSequence.from_string("abcabcabcabc")
        pairs = SpectralMiner().candidate_period_symbols(series, psi=0.9)
        assert (3, 0) in pairs and (3, 1) in pairs and (3, 2) in pairs

    def test_never_nominates_period_zero(self, paper_series):
        pairs = SpectralMiner().candidate_period_symbols(paper_series, psi=0.1)
        assert all(p >= 1 for p, _ in pairs)

    def test_superset_of_table_candidates(self, rng):
        """The detection phase may over-nominate but never under-nominate."""
        for _ in range(5):
            series = random_series(rng, 60, 3)
            psi = 0.5
            nominated = set(SpectralMiner().candidate_period_symbols(series, psi))
            table = SpectralMiner().periodicity_table(series)
            actual = {
                (h.period, h.symbol_code) for h in table.periodicities(psi)
            }
            assert actual <= nominated

    def test_rejects_bad_psi(self, paper_series):
        with pytest.raises(ValueError):
            SpectralMiner().candidate_period_symbols(paper_series, psi=0.0)


class TestPeriodicityTable:
    def test_unpruned_matches_brute_force(self, rng):
        for _ in range(8):
            series = random_series(rng, int(rng.integers(5, 90)), int(rng.integers(2, 6)))
            assert SpectralMiner().periodicity_table(series) == brute_force_table(series)

    def test_pruned_table_preserves_hits_at_psi(self, rng):
        for _ in range(5):
            series = random_series(rng, 70, 3)
            psi = 0.4
            full = SpectralMiner().periodicity_table(series)
            pruned = SpectralMiner(psi=psi).periodicity_table(series)
            full_hits = {
                (h.period, h.position, h.symbol_code, h.f2)
                for h in full.periodicities(psi)
            }
            pruned_hits = {
                (h.period, h.position, h.symbol_code, h.f2)
                for h in pruned.periodicities(psi)
            }
            assert full_hits == pruned_hits

    def test_pruned_is_subset_of_full(self, rng):
        series = random_series(rng, 80, 4)
        full = SpectralMiner().periodicity_table(series)
        pruned = SpectralMiner(psi=0.6).periodicity_table(series)
        for p in pruned.periods:
            for (k, l), count in pruned.counts_for(p).items():
                assert full.f2(p, k, l) == count

    def test_rejects_bad_psi(self):
        with pytest.raises(ValueError):
            SpectralMiner(psi=1.5)

    def test_rejects_bad_max_period(self, paper_series):
        with pytest.raises(ValueError):
            SpectralMiner(max_period=0).periodicity_table(paper_series)

    def test_tiny_series_empty_table(self):
        series = SymbolSequence.from_string("a")
        assert SpectralMiner().periodicity_table(series).periods == []

