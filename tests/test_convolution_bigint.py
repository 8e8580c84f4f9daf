"""Tests for repro.convolution.bigint — the exact witness-carrying convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convolution import (
    bit_positions,
    pack_bits,
    weighted_convolution_witnesses,
    weighted_convolve_direct,
)


class TestBitPacking:
    def test_pack_simple(self):
        assert pack_bits([0, 2], 4) == 0b101

    def test_pack_empty(self):
        assert pack_bits([], 8) == 0

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_bits([8], 8)
        with pytest.raises(ValueError):
            pack_bits([-1], 8)

    def test_bit_positions_inverse(self):
        assert bit_positions(0b10110).tolist() == [1, 2, 4]

    def test_bit_positions_zero(self):
        assert bit_positions(0).size == 0

    def test_bit_positions_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_positions(-3)

    @settings(max_examples=50, deadline=None)
    @given(positions=st.sets(st.integers(0, 500), max_size=40))
    def test_round_trip(self, positions):
        value = pack_bits(sorted(positions), 501)
        assert set(bit_positions(value).tolist()) == positions

    def test_large_positions(self):
        value = pack_bits([0, 100_000], 100_001)
        assert bit_positions(value).tolist() == [0, 100_000]


class TestWeightedKronecker:
    """The one Kronecker multiplication behind ``weighted_convolution_witnesses``."""

    def test_rejects_unequal_lengths(self):
        for x, y in [
            (np.ones(3, dtype=np.int64), np.ones(4, dtype=np.int64)),
            (np.ones(4, dtype=np.int64), np.ones(3, dtype=np.int64)),
            ([], [1]),
        ]:
            with pytest.raises(ValueError, match="equal-length"):
                weighted_convolution_witnesses(x, y)


class TestWitnessExtraction:
    def test_witnesses_match_component_bits(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=30)
        y = rng.integers(0, 2, size=30)
        witnesses = weighted_convolution_witnesses(x, y)
        components = weighted_convolve_direct(x.tolist(), y.tolist())
        assert len(witnesses) == 30
        for i, component in enumerate(components):
            assert witnesses[i].tolist() == bit_positions(component).tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
        other=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    )
    def test_matches_direct_reference(self, bits, other):
        """Entry ``i`` is the set bits of the quadratic reference's component."""
        n = min(len(bits), len(other))
        x, y = bits[:n], other[:n]
        witnesses = weighted_convolution_witnesses(x, y)
        components = weighted_convolve_direct(x, y)
        assert [w.tolist() for w in witnesses] == [
            bit_positions(c).tolist() for c in components
        ]

    def test_ascending_within_component(self):
        x = np.ones(10, dtype=np.int64)
        witnesses = weighted_convolution_witnesses(x, x)
        for w in witnesses:
            assert (np.diff(w) > 0).all()

    def test_all_zero_inputs(self):
        x = np.zeros(6, dtype=np.int64)
        witnesses = weighted_convolution_witnesses(x, x)
        assert all(w.size == 0 for w in witnesses)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            weighted_convolution_witnesses([2, 0], [1, 0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            weighted_convolution_witnesses([1], [1, 0])

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.lists(st.integers(0, 1), min_size=2, max_size=30),
    )
    def test_self_convolution_witness_count(self, x):
        """Total witnesses equal total non-zero products sum_j x'_j x_{i-j}."""
        x = np.array(x, dtype=np.int64)
        witnesses = weighted_convolution_witnesses(x, x)
        total = sum(w.size for w in witnesses)
        n = x.size
        expected = sum(
            int(x[j] and x[i - j]) for i in range(n) for j in range(i + 1)
        )
        assert total == expected
