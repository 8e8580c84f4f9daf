"""Tests for repro.streaming — chunked readers and the online miner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.streaming import ChunkedReader, OnlineMiner, write_symbol_file

from conftest import random_series, series_strategy


class TestChunkedReader:
    def test_from_sequence(self, rng):
        series = random_series(rng, 100, 4)
        reader = ChunkedReader(series, block_size=17)
        blocks = list(reader)
        assert sum(b.size for b in blocks) == 100
        assert np.concatenate(blocks).tolist() == series.codes.tolist()

    def test_repeatable_iteration(self, rng):
        series = random_series(rng, 50, 3)
        reader = ChunkedReader(series, block_size=8)
        assert [b.tolist() for b in reader] == [b.tolist() for b in reader]

    def test_from_file_round_trip(self, rng, tmp_path):
        series = random_series(rng, 200, 5)
        path = write_symbol_file(series, tmp_path / "series.txt")
        reader = ChunkedReader(path, alphabet=series.alphabet, block_size=33)
        assert reader.materialize() == series

    @pytest.mark.parametrize("block_size", [1, 2, 3, 5, 64])
    def test_file_ignores_surrounding_whitespace(self, tmp_path, block_size):
        path = tmp_path / "series.txt"
        path.write_text(" \n\tab cab\n\n \n", encoding="ascii")
        reader = ChunkedReader(path, alphabet=Alphabet("abc "),
                               block_size=block_size)
        assert reader.materialize().to_string() == "ab cab"
        assert all(block.size for block in reader)

    def test_whitespace_only_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n  \n", encoding="ascii")
        reader = ChunkedReader(path, alphabet=Alphabet("ab"), block_size=2)
        assert list(reader) == []

    def test_from_iterable(self):
        reader = ChunkedReader(iter("abcabc"), alphabet=Alphabet("abc"), block_size=4)
        assert reader.materialize().to_string() == "abcabc"

    def test_requires_alphabet_for_raw_sources(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedReader(tmp_path / "x.txt")

    def test_rejects_bad_block_size(self, rng):
        with pytest.raises(ValueError):
            ChunkedReader(random_series(rng, 10, 2), block_size=0)

    def test_rejects_fractional_block_size(self, rng):
        with pytest.raises(TypeError, match="block_size must be an integer"):
            ChunkedReader(random_series(rng, 10, 2), block_size=2.5)

    def test_sigma_property(self, rng):
        reader = ChunkedReader(random_series(rng, 10, 4))
        assert reader.sigma == 4

    def test_write_rejects_multichar_symbols(self, tmp_path):
        series = SymbolSequence.from_symbols(["up", "down"])
        with pytest.raises(ValueError):
            write_symbol_file(series, tmp_path / "bad.txt")


class TestOnlineMiner:
    def test_matches_batch_miner(self, rng):
        series = random_series(rng, 300, 4)
        cap = 40
        online = OnlineMiner(series.alphabet, max_period=cap)
        online.consume(series)
        batch = SpectralMiner(max_period=cap).periodicity_table(series)
        assert online.table() == batch

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(min_size=2, max_size=80), cap=st.integers(1, 20))
    def test_matches_batch_miner_property(self, series, cap):
        online = OnlineMiner(series.alphabet, max_period=cap)
        online.consume(series)
        batch = SpectralMiner(max_period=cap).periodicity_table(series)
        assert online.table() == batch

    def test_incremental_equals_one_shot(self, rng):
        series = random_series(rng, 120, 3)
        online = OnlineMiner(series.alphabet, max_period=15)
        for code in series.codes:
            online.append_code(int(code))
        batch = SpectralMiner(max_period=15).periodicity_table(series)
        assert online.table() == batch

    def test_append_by_symbol(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=3)
        miner.extend("ababab")
        assert miner.n == 6
        assert miner.confidence(2) == pytest.approx(1.0)

    def test_confidence_grows_with_evidence(self, rng):
        miner = OnlineMiner(Alphabet.of_size(4), max_period=10)
        miner.extend_codes([0, 1, 2, 3] * 25)
        assert miner.confidence(4) == pytest.approx(1.0)
        assert miner.confidence(3) < 0.5

    def test_confidence_beyond_cap_raises(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=5)
        with pytest.raises(ValueError):
            miner.confidence(6)

    def test_rejects_bad_code(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=3)
        with pytest.raises(ValueError):
            miner.append_code(7)

    def test_rejects_bad_max_period(self):
        with pytest.raises(ValueError):
            OnlineMiner(Alphabet("ab"), max_period=0)

    def test_rejects_non_integer_max_period(self):
        with pytest.raises(TypeError, match="max_period must be an integer"):
            OnlineMiner(Alphabet("ab"), max_period=2.5)

    def test_consume_rejects_other_alphabet(self, rng):
        miner = OnlineMiner(Alphabet("ab"), max_period=3)
        with pytest.raises(ValueError):
            miner.consume(random_series(rng, 10, 3))

    def test_periodicities_live_view(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=4)
        miner.extend("abab")
        assert miner.periodicities(0.9) != []

    def test_table_snapshot_is_independent(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=4)
        miner.extend("abababab")
        snapshot = miner.table()
        miner.extend("bbbbbb")
        assert snapshot.n == 8  # unchanged by later appends
