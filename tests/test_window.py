"""Tests for repro.streaming.window — the sliding-window miner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.streaming import SlidingWindowMiner


def _batch_window(codes: np.ndarray, end: int, window: int, cap: int):
    start = max(end - window, 0)
    series = SymbolSequence.from_codes(codes[start:end], Alphabet.of_size(3))
    return SpectralMiner(max_period=cap).periodicity_table(series)


class TestEquivalence:
    def test_matches_batch_at_every_step(self, rng):
        codes = rng.integers(0, 3, size=150)
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=10, window=40)
        for i, code in enumerate(codes):
            miner.append_code(int(code))
            if i % 13 == 0 or i == len(codes) - 1:
                assert miner.table() == _batch_window(codes, i + 1, 40, 10)

    @settings(max_examples=25, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 2), min_size=1, max_size=120),
        window=st.integers(5, 40),
        cap=st.integers(1, 15),
    )
    def test_final_state_matches_batch_property(self, codes, window, cap):
        if cap >= window:
            cap = window - 1
        if cap < 1:
            return
        codes = np.array(codes, dtype=np.int64)
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=cap, window=window)
        miner.extend_codes(codes)
        assert miner.table() == _batch_window(codes, codes.size, window, cap)

    def test_window_forgets_old_structure(self, rng):
        # Periodic prefix then random tail longer than the window: once the
        # tail fills the window, the old period's confidence decays.
        alphabet = Alphabet.of_size(3)
        periodic = np.tile(np.array([0, 1, 2, 1]), 30)  # period 4
        random_tail = rng.integers(0, 3, size=80)
        miner = SlidingWindowMiner(alphabet, max_period=8, window=60)
        miner.extend_codes(periodic)
        strong = miner.confidence(4)
        miner.extend_codes(random_tail)
        weak = miner.confidence(4)
        assert strong == pytest.approx(1.0)
        assert weak < 0.6


class TestBookkeeping:
    def test_counts_never_negative(self, rng):
        miner = SlidingWindowMiner(Alphabet.of_size(2), max_period=6, window=10)
        miner.extend_codes(rng.integers(0, 2, size=500))  # would raise on bug

    def test_size_and_start(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        miner.extend_codes([0, 1, 0])
        assert miner.size == 3 and miner.start == 0
        miner.extend_codes([1, 0, 1, 0])
        assert miner.size == 5 and miner.start == 2
        assert miner.n == 7

    def test_append_by_symbol(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=6)
        for s in "ababab":
            miner.append(s)
        assert miner.confidence(2) == pytest.approx(1.0)

    def test_periodicities_query(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=3, window=10)
        miner.extend_codes([0, 1] * 5)
        assert any(h.period == 2 for h in miner.periodicities(0.9))


class TestValidation:
    def test_rejects_bad_max_period(self):
        with pytest.raises(ValueError):
            SlidingWindowMiner(Alphabet("ab"), max_period=0, window=5)

    def test_rejects_window_not_exceeding_period(self):
        with pytest.raises(ValueError):
            SlidingWindowMiner(Alphabet("ab"), max_period=5, window=5)

    def test_rejects_bad_code(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        with pytest.raises(ValueError):
            miner.append_code(9)

    def test_confidence_beyond_cap(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        with pytest.raises(ValueError):
            miner.confidence(3)

    def test_confidence_rejects_non_integer_period(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        with pytest.raises(TypeError, match="period must be an integer"):
            miner.confidence(1.5)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(max_period=4, window=10.5), "window"),
            (dict(max_period=2.5, window=10), "max_period"),
            (dict(max_period=4, window="10"), "window"),
        ],
    )
    def test_rejects_non_integer_arguments(self, kwargs, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SlidingWindowMiner(Alphabet.of_size(3), **kwargs)

    def test_accepts_numpy_integers(self):
        miner = SlidingWindowMiner(
            Alphabet.of_size(3), max_period=np.int64(4), window=np.int32(10)
        )
        assert (miner.max_period, miner.window) == (4, 10)
        assert type(miner.window) is int
