"""Tests for repro.core.sequence."""

import numpy as np
import pytest

from repro.core import Alphabet, SymbolSequence


class TestConstruction:
    def test_from_string_infers_alphabet(self):
        series = SymbolSequence.from_string("abcabbabcb")
        assert series.length == 10
        assert series.sigma == 3

    def test_from_string_with_explicit_alphabet(self):
        sigma = Alphabet("abcd")
        series = SymbolSequence.from_string("aa", sigma)
        assert series.sigma == 4

    def test_from_symbols(self):
        series = SymbolSequence.from_symbols(["hi", "lo", "hi"])
        assert series.length == 3
        assert series.symbols() == ["hi", "lo", "hi"]

    def test_from_codes(self):
        series = SymbolSequence.from_codes([0, 1, 0], Alphabet("ab"))
        assert series.to_string() == "aba"

    def test_from_codes_numpy(self):
        series = SymbolSequence.from_codes(np.array([1, 1]), Alphabet("ab"))
        assert series.to_string() == "bb"

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            SymbolSequence.from_codes([0, 5], Alphabet("ab"))

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError):
            SymbolSequence.from_codes([-1], Alphabet("ab"))

    def test_rejects_2d_codes(self):
        with pytest.raises(ValueError):
            SymbolSequence(np.zeros((2, 2), dtype=np.int64), Alphabet("ab"))

    def test_rejects_0d_codes(self):
        # A 0-d array used to be widened to one code.
        with pytest.raises(ValueError, match="one-dimensional"):
            SymbolSequence.from_codes(np.array(1), Alphabet("ab"))

    def test_codes_are_read_only(self):
        series = SymbolSequence.from_string("ab")
        with pytest.raises(ValueError):
            series.codes[0] = 1


class TestAccessors:
    def test_round_trip_string(self):
        assert SymbolSequence.from_string("cabba").to_string() == "cabba"

    def test_indexing_returns_symbols(self):
        series = SymbolSequence.from_string("abc")
        assert series[1] == "b"
        assert series[-1] == "c"

    def test_slicing_returns_sequence(self):
        series = SymbolSequence.from_string("abcde")
        sliced = series[1:4]
        assert isinstance(sliced, SymbolSequence)
        assert sliced.to_string() == "bcd"
        assert sliced.alphabet == series.alphabet

    def test_iteration(self):
        assert list(SymbolSequence.from_string("aba")) == ["a", "b", "a"]

    def test_len(self):
        assert len(SymbolSequence.from_string("abcd")) == 4

    def test_indicator(self):
        series = SymbolSequence.from_string("abab")
        assert series.indicator(0).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_repr_short_and_long(self):
        short = SymbolSequence.from_string("ab")
        assert "ab" in repr(short)
        long = SymbolSequence.from_string("ab" * 40)
        assert "..." in repr(long)


class TestDerived:
    def test_shifted_drops_prefix(self):
        series = SymbolSequence.from_string("abcabba")
        assert series.shifted(3).to_string() == "abba"

    def test_shifted_zero_is_identity(self):
        series = SymbolSequence.from_string("abc")
        assert series.shifted(0) == series

    def test_shifted_full_length_is_empty(self):
        assert SymbolSequence.from_string("abc").shifted(3).length == 0

    def test_shifted_out_of_range(self):
        with pytest.raises(ValueError):
            SymbolSequence.from_string("abc").shifted(4)

    def test_concatenated(self):
        sigma = Alphabet("ab")
        left = SymbolSequence.from_string("ab", sigma)
        right = SymbolSequence.from_string("ba", sigma)
        assert left.concatenated(right).to_string() == "abba"

    def test_concatenated_rejects_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            SymbolSequence.from_string("ab").concatenated(
                SymbolSequence.from_string("cd")
            )


class TestEquality:
    def test_equality_and_hash(self):
        a = SymbolSequence.from_string("aba", Alphabet("ab"))
        b = SymbolSequence.from_string("aba", Alphabet("ab"))
        assert a == b
        assert hash(a) == hash(b)

    def test_differs_by_content(self):
        sigma = Alphabet("ab")
        assert SymbolSequence.from_string("ab", sigma) != SymbolSequence.from_string(
            "ba", sigma
        )

    def test_differs_by_alphabet(self):
        a = SymbolSequence.from_codes([0], Alphabet("ab"))
        b = SymbolSequence.from_codes([0], Alphabet("ba"))
        assert a != b
