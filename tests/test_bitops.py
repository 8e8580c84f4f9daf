"""Tests for repro.convolution.bitops — packing ``T'`` into words."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convolution.bigint import pack_bits
from repro.convolution.bitops import pack_positions


def positions_strategy(max_total=500):
    """(positions, total_bits) with positions unique but unsorted."""
    return st.integers(1, max_total).flatmap(
        lambda total: st.tuples(
            st.lists(
                st.integers(0, total - 1), unique=True, max_size=total
            ).map(lambda ps: np.array(ps, dtype=np.int64)),
            st.just(total),
        )
    )


class TestPackPositions:
    @settings(max_examples=150, deadline=None)
    @given(args=positions_strategy())
    def test_matches_bigint_pack(self, args):
        """The reduceat pack equals the big-integer reference bit-for-bit."""
        positions, total = args
        words = pack_positions(positions, total)
        expected = pack_bits(positions, total)
        got = int.from_bytes(words.tobytes(), "little")
        assert got == expected
        assert words.size == (total + 63) // 64

    @settings(max_examples=60, deadline=None)
    @given(args=positions_strategy())
    def test_unsorted_input_equals_sorted(self, args):
        positions, total = args
        shuffled = positions[::-1].copy()
        np.testing.assert_array_equal(
            pack_positions(shuffled, total), pack_positions(positions, total)
        )

    def test_duplicates_are_idempotent(self):
        words = pack_positions(np.array([3, 3, 64, 3, 64]), 100)
        assert int.from_bytes(words.tobytes(), "little") == (1 << 3) | (1 << 64)

    def test_empty(self):
        assert pack_positions(np.array([], dtype=np.int64), 130).tolist() == [0, 0, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_positions(np.array([64]), 64)
        with pytest.raises(ValueError):
            pack_positions(np.array([-1]), 64)
