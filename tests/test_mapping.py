"""Tests for repro.core.mapping — the Sect. 3.2 scheme, pinned to the paper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SymbolSequence,
    binary_vector,
    binary_vector_bits,
    decode_witness,
    f2_projection,
    witness_power,
)
from repro.core.mapping import witness_keys
from repro.core.projection import f2_table_from_keys

from conftest import series_strategy


def f2_table(powers, n, sigma, p):
    """``W_p`` decoded by :func:`witness_keys`, as ``{(k, l): F2}``."""
    return f2_table_from_keys(*witness_keys(powers, n, sigma, p), p)


class TestBinaryVector:
    def test_paper_example(self, mapping_series):
        # T = acccabb with a:001, b:010, c:100
        expected = "001100100100001010010"
        assert "".join(map(str, binary_vector(mapping_series))) == expected

    def test_length_is_sigma_n(self):
        series = SymbolSequence.from_string("abcd")
        assert binary_vector(series).size == 16

    def test_one_bit_per_symbol(self, paper_series):
        vector = binary_vector(paper_series)
        blocks = vector.reshape(paper_series.length, paper_series.sigma)
        assert (blocks.sum(axis=1) == 1).all()

    def test_bits_agree_with_vector(self, paper_series):
        vector = binary_vector(paper_series)
        positions = binary_vector_bits(paper_series)
        rebuilt = np.zeros_like(vector)
        rebuilt[positions] = 1
        assert (rebuilt == vector).all()

    def test_block_encodes_power_of_two(self):
        series = SymbolSequence.from_string("cab")
        vector = binary_vector(series)
        sigma = series.sigma
        for i, code in enumerate(series.codes):
            block = vector[i * sigma : (i + 1) * sigma]
            value = int("".join(map(str, block)), 2)
            assert value == 2 ** int(code)


class TestWitnessCodec:
    def test_power_formula_paper_p4(self, mapping_series):
        # c'_4 = 2^6: symbol a (code 0) matched at positions 0 and 4.
        w = witness_power(
            mapping_series.length, mapping_series.sigma,
            earlier_index=0, period=4, symbol_code=0,
        )
        assert w == 6

    def test_decode_paper_p4(self, mapping_series):
        decoded = decode_witness(6, mapping_series.length, mapping_series.sigma, 4)
        assert decoded.symbol_code == 0
        assert decoded.earlier_index == 0
        assert decoded.position == 0
        assert decoded.repetition == 0

    def test_round_trip_all_matches(self, paper_series):
        n, sigma = paper_series.length, paper_series.sigma
        codes = paper_series.codes
        for p in range(1, n):
            for j in range(n - p):
                if codes[j] == codes[j + p]:
                    w = witness_power(n, sigma, j, p, int(codes[j]))
                    decoded = decode_witness(w, n, sigma, p)
                    assert decoded.symbol_code == codes[j]
                    assert decoded.earlier_index == j
                    assert decoded.position == j % p
                    assert decoded.repetition == j // p

    def test_power_rejects_out_of_range_pair(self):
        with pytest.raises(ValueError):
            witness_power(5, 2, earlier_index=3, period=3, symbol_code=0)

    def test_decode_rejects_negative_power(self):
        with pytest.raises(ValueError):
            decode_witness(-1, 10, 3, 2)

    def test_decode_rejects_impossible_power(self):
        # A power so large the earlier index would be negative.
        with pytest.raises(ValueError):
            decode_witness(100, 5, 2, 2)


class TestWitnessTable:
    def test_paper_w3_table(self, paper_series):
        # W_3 = {18, 16, 9, 7} -> F2(a, pi_{3,0}) = 2, F2(b, pi_{3,1}) = 2
        table = f2_table(
            np.array([18, 16, 9, 7]), paper_series.length, paper_series.sigma, 3
        )
        assert table == {(0, 0): 2, (1, 1): 2}

    def test_paper_cabccbacd_w4(self):
        series = SymbolSequence.from_string("cabccbacd")
        table = f2_table(np.array([18, 6]), 9, 4, 4)
        c = series.alphabet.code("c")
        assert table == {(c, 0): 1, (c, 3): 1}

    def test_empty_witnesses(self):
        assert f2_table(np.array([]), 10, 3, 2) == {}

    def test_rejects_invalid_powers(self):
        with pytest.raises(ValueError):
            f2_table(np.array([1000]), 10, 3, 2)

    @settings(max_examples=50, deadline=None)
    @given(series=series_strategy(min_size=3, max_size=40), p=st.integers(1, 10))
    def test_encode_then_tabulate_equals_f2(self, series, p):
        """Encoding every match then tabulating recovers the F2 counts."""
        n, sigma = series.length, series.sigma
        if p >= n:
            return
        codes = series.codes
        powers = [
            witness_power(n, sigma, j, p, int(codes[j]))
            for j in range(n - p)
            if codes[j] == codes[j + p]
        ]
        table = f2_table(np.array(powers, dtype=np.int64), n, sigma, p)
        for (k, l), count in table.items():
            assert count == f2_projection(series, k, p, l)
