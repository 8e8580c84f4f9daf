"""Tests for merge mining, calendar descriptions, and repro.testing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import describe_period
from repro.baselines import (
    MaxSubpatternMiner,
    MaxSubpatternTree,
    MergeMiner,
    merge_trees,
)
from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.testing import (
    assert_miner_correct,
    assert_tables_equal,
    oracle_table,
    random_series,
)

from conftest import series_strategy


class TestMergeTrees:
    def test_counts_add(self):
        root = ((0, 1), (1, 0))
        a = MaxSubpatternTree(root)
        b = MaxSubpatternTree(root)
        a.insert(((0, 1),))
        b.insert(((0, 1),))
        b.insert(root)
        merged = merge_trees(a, b)
        assert merged.frequency(((0, 1),)) == 3
        assert merged.frequency(root) == 1

    def test_rejects_different_roots(self):
        a = MaxSubpatternTree(((0, 1),))
        b = MaxSubpatternTree(((1, 0),))
        with pytest.raises(ValueError):
            merge_trees(a, b)


class TestMergeMiner:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        period=st.integers(2, 6),
        confidence=st.sampled_from([0.3, 0.5]),
    )
    def test_merge_equals_monolithic(self, data, period, confidence):
        sigma = data.draw(st.integers(2, 4))
        chunk_count = data.draw(st.integers(2, 4))
        pieces = []
        for index in range(chunk_count):
            if index < chunk_count - 1:
                segments = data.draw(st.integers(1, 6))
                size = segments * period
            else:
                size = data.draw(st.integers(1, 25))
            pieces.append(
                np.array(
                    data.draw(
                        st.lists(
                            st.integers(0, sigma - 1),
                            min_size=size,
                            max_size=size,
                        )
                    ),
                    dtype=np.int64,
                )
            )
        alphabet = Alphabet.of_size(sigma)
        chunks = [SymbolSequence.from_codes(c, alphabet) for c in pieces]
        whole = SymbolSequence.from_codes(np.concatenate(pieces), alphabet)
        merged = {
            (p.slots, round(p.support, 9))
            for p in MergeMiner(confidence).merge_mine(chunks, period)
        }
        monolithic = {
            (p.slots, round(p.support, 9))
            for p in MaxSubpatternMiner(confidence).mine(whole, period)
        }
        assert merged == monolithic

    @settings(max_examples=40, deadline=None)
    @given(
        series=series_strategy(min_size=4, max_size=90, max_sigma=3),
        period=st.integers(1, 6),
        confidence=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
        max_arity=st.none() | st.integers(1, 3),
        data=st.data(),
    )
    def test_random_aligned_chunkings_equal_monolithic(
        self, series, period, confidence, max_arity, data
    ):
        """Cut one series at random segment boundaries: the merged
        patterns equal the monolithic ones, in order and with supports."""
        segments = series.length // period
        cuts = sorted(
            data.draw(st.sets(st.integers(1, max(segments, 1)), max_size=4))
        )
        bounds = [0, *(c * period for c in cuts if c * period < series.length)]
        chunks = [
            SymbolSequence.from_codes(series.codes[lo:hi], series.alphabet)
            for lo, hi in zip(bounds, [*bounds[1:], series.length])
        ]
        merged = MergeMiner(confidence, max_arity).merge_mine(chunks, period)
        monolithic = MaxSubpatternMiner(confidence, max_arity).mine(series, period)
        assert [(p.items, p.support) for p in merged] == [
            (p.items, p.support) for p in monolithic
        ]

    def test_globally_frequent_locally_infrequent_item(self):
        """The case naive per-chunk F1 would miss."""
        alphabet = Alphabet("ab")
        # Chunk 1: 'a' at position 0 in 2 of 4 segments (50%);
        # chunk 2: 'a' at position 0 in 3 of 4 segments (75%);
        # global: 5/8 = 62.5% — frequent at 0.6 though chunk 1 is not.
        chunk1 = SymbolSequence.from_string("ab" * 2 + "bb" * 2, alphabet)
        chunk2 = SymbolSequence.from_string("ab" * 3 + "bb" * 1, alphabet)
        whole = chunk1.concatenated(chunk2)
        merged = MergeMiner(0.6).merge_mine([chunk1, chunk2], 2)
        monolithic = MaxSubpatternMiner(0.6).mine(whole, 2)
        assert {p.slots for p in merged} == {p.slots for p in monolithic}
        assert any(p.slots == (0, None) for p in merged)

    def test_validation(self):
        alphabet = Alphabet("ab")
        aligned = SymbolSequence.from_string("abab", alphabet)
        ragged = SymbolSequence.from_string("aba", alphabet)
        with pytest.raises(ValueError):
            MergeMiner().merge_mine([], 2)
        with pytest.raises(ValueError):
            MergeMiner().merge_mine([aligned], 0)
        with pytest.raises(ValueError):
            MergeMiner().merge_mine([ragged, aligned], 2)
        with pytest.raises(ValueError):
            MergeMiner().merge_mine(
                [aligned, SymbolSequence.from_string("cd")], 2
            )

    def test_ragged_last_chunk_allowed(self):
        alphabet = Alphabet("ab")
        chunks = [
            SymbolSequence.from_string("abab", alphabet),
            SymbolSequence.from_string("aba", alphabet),
        ]
        patterns = MergeMiner(0.5).merge_mine(chunks, 2)
        assert patterns


class TestDescribePeriod:
    def test_weekly_hours(self):
        d = describe_period(168, 3600)
        assert d.text == "1 week (weekly)"
        assert not d.is_obscure_variant

    def test_daily_hours(self):
        assert describe_period(24, 3600).landmark == "daily"

    def test_dst_style_offset(self):
        d = describe_period(25, 3600)
        assert d.is_obscure_variant
        assert d.offset_samples == 1

    def test_paper_3961(self):
        """The paper's famous '5.5 months plus one hour' period."""
        d = describe_period(3961, 3600)
        assert d.offset_samples == 1
        assert d.is_obscure_variant
        assert "months" in d.text

    def test_weekly_days(self):
        d = describe_period(7, 86_400)
        assert d.landmark == "weekly"

    def test_no_vacuous_landmark(self):
        # With daily samples, "daily" (one sample) must not label everything.
        d = describe_period(123, 86_400)
        assert d.landmark is None or "daily" not in d.landmark

    def test_sub_landmark_period(self):
        d = describe_period(3, 60)  # 3 minutes of minute samples
        assert d.seconds == 180

    def test_validation(self):
        with pytest.raises(ValueError):
            describe_period(0, 3600)
        with pytest.raises(ValueError):
            describe_period(5, 0)
        with pytest.raises(ValueError):
            describe_period(5, 60, landmark_tolerance=-1)


class TestTestingHelpers:
    def test_random_series_reproducible(self):
        assert random_series(50, 4, seed=9) == random_series(50, 4, seed=9)

    def test_oracle_table_matches_miner(self):
        series = random_series(40, 3, seed=1)
        assert_tables_equal(
            SpectralMiner().periodicity_table(series), oracle_table(series)
        )

    def test_assert_tables_equal_diff_message(self):
        series = random_series(20, 2, seed=2)
        good = oracle_table(series)
        from repro.core import PeriodicityTable

        # One cell off by one, still within its projection's pair count.
        counts = {p: dict(good.counts_for(p)) for p in good.periods}
        cell = next(iter(counts[2]))
        counts[2][cell] -= 1
        bad = PeriodicityTable(good.n, good.alphabet, counts)
        with pytest.raises(AssertionError, match="period"):
            assert_tables_equal(bad, good)

    def test_assert_miner_correct_passes_for_real_miners(self):
        assert_miner_correct(SpectralMiner(), trials=5)

    def test_assert_miner_correct_catches_a_broken_miner(self):
        class Broken:
            def periodicity_table(self, series):
                table = oracle_table(series)
                counts = {p: dict(table.counts_for(p)) for p in table.periods}
                if counts:
                    first = next(iter(counts))
                    key = next(iter(counts[first]))
                    counts[first][key] += 1  # corrupt one cell
                from repro.core import PeriodicityTable

                return PeriodicityTable(table.n, table.alphabet, counts)

        with pytest.raises(AssertionError, match="diverged"):
            assert_miner_correct(Broken(), trials=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_series(-1, 2)
        with pytest.raises(ValueError):
            assert_miner_correct(SpectralMiner(), trials=0)
