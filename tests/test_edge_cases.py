"""Edge-case sweep: degenerate inputs through every public entry point.

Empty, single-symbol, constant, two-symbol, and unary-alphabet series
must either work with sensible semantics or fail with a clear
ValueError — never crash with an internal error.
"""

import numpy as np
import pytest

from repro import ConvolutionMiner, OnlineMiner, SpectralMiner, mine
from repro.analysis import base_periods, describe_period, score_periodicities
from repro.core import segment_supports
from repro.baselines import (
    HanPartialMiner,
    MaHellerstein,
    MaxSubpatternMiner,
    PeriodicTrends,
    WarpingDetector,
    brute_force_table,
)
from repro.core import Alphabet, SymbolSequence, projection
from repro.streaming import SlidingWindowMiner

EMPTY = SymbolSequence.from_codes([], Alphabet("ab"))
SINGLE = SymbolSequence.from_string("a", Alphabet("ab"))
PAIR = SymbolSequence.from_string("ab")
CONSTANT = SymbolSequence.from_string("aaaaaaaa", Alphabet("ab"))
UNARY = SymbolSequence.from_codes([0] * 6, Alphabet("a"))


class TestMiners:
    @pytest.mark.parametrize("series", [EMPTY, SINGLE], ids=["empty", "single"])
    def test_miners_yield_empty_tables(self, series):
        assert SpectralMiner().periodicity_table(series).periods == []
        assert ConvolutionMiner().periodicity_table(series).periods == []
        assert brute_force_table(series).periods == []

    def test_pair_series(self):
        table = SpectralMiner().periodicity_table(PAIR)
        assert table.confidence(1) == 0.0  # a != b at shift 1

    def test_constant_series_every_period_perfect(self):
        table = ConvolutionMiner().periodicity_table(CONSTANT)
        for p in range(1, 5):
            assert table.confidence(p) == pytest.approx(1.0)

    def test_unary_alphabet(self):
        table = SpectralMiner().periodicity_table(UNARY)
        assert table.confidence(1) == pytest.approx(1.0)
        result = mine(UNARY, psi=0.9)
        assert result.patterns

    def test_mine_on_tiny_series(self):
        result = mine(PAIR, psi=0.5)
        assert result.patterns == ()


class TestCoreHelpers:
    def test_projection_of_short_series(self):
        assert projection(PAIR, 5, 1).to_string() == "b"

    def test_segment_supports_tiny(self):
        assert segment_supports(SINGLE).tolist() == [1.0]
        assert segment_supports(EMPTY).tolist() == [1.0]


class TestAnalysis:
    def test_base_periods_empty_table(self):
        table = SpectralMiner().periodicity_table(EMPTY)
        assert base_periods(table, psi=0.5) == []

    def test_score_periodicities_constant(self):
        table = SpectralMiner().periodicity_table(CONSTANT)
        scored = score_periodicities(CONSTANT, table, psi=0.9)
        # Every score exists and lies in [0, 1].
        assert scored
        assert all(0.0 <= s.p_value <= 1.0 for s in scored)

    def test_describe_period_one_sample(self):
        assert describe_period(1, 3600).seconds == 3600


class TestBaselines:
    def test_trends_rejects_tiny(self):
        with pytest.raises(ValueError):
            PeriodicTrends(method="exact").analyse(SINGLE)

    def test_trends_on_pair(self):
        result = PeriodicTrends(method="exact").analyse(PAIR)
        assert result.ranked_periods == (1,)

    def test_ma_hellerstein_empty_and_tiny(self):
        assert MaHellerstein().candidates(SINGLE) == []
        assert MaHellerstein().candidates(CONSTANT) != None  # noqa: E711

    def test_han_miners_tiny(self):
        assert HanPartialMiner().mine(SINGLE, 3) == []
        assert MaxSubpatternMiner().mine(SINGLE, 3) == []

    def test_warping_rejects_degenerate(self):
        with pytest.raises(ValueError):
            WarpingDetector().confidence(SINGLE, 1)

    def test_warping_on_pair(self):
        assert 0.0 <= WarpingDetector(band=1).confidence(PAIR, 1) <= 1.0


class TestStreaming:
    def test_online_miner_no_input(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=4)
        assert miner.table().periods == []
        assert miner.periodicities(0.5) == []

    def test_online_miner_single_symbol(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=4)
        miner.append("a")
        assert miner.n == 1
        assert miner.table().periods == []

    def test_sliding_window_no_input(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        assert miner.size == 0
        assert miner.table().periods == []

    def test_sliding_window_eviction_of_everything(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=3)
        miner.extend_codes([0, 0, 0, 1, 1, 1])
        # Window now holds only 'b's; period-1 evidence must reflect that.
        table = miner.table()
        assert table.f2(1, 1, 0) == 2
        assert table.f2(1, 0, 0) == 0


class TestFaultHardenedEngine:
    """Degenerate inputs through the parallel engine's thread pool must
    match the serial engines when there is nothing (or almost nothing)
    to mine."""

    def _miner(self, **kwargs):
        return ConvolutionMiner(engine="parallel", **kwargs)

    @pytest.mark.parametrize("series", [EMPTY, SINGLE], ids=["empty", "single"])
    def test_degenerate_series_yield_empty_tables(self, series):
        assert self._miner().periodicity_table(series).periods == []
        assert self._miner().fault_events == ()

    def test_unary_alphabet_matches_serial(self):
        serial = ConvolutionMiner(engine="bitand").periodicity_table(UNARY)
        assert self._miner().periodicity_table(UNARY) == serial

    def test_pair_and_constant_match_serial(self):
        for series in (PAIR, CONSTANT):
            serial = ConvolutionMiner(engine="bitand").periodicity_table(series)
            assert self._miner().periodicity_table(series) == serial

    def test_more_workers_than_shards(self):
        # 8 periods at most, 32 workers: map_periods must not starve or
        # duplicate a period range.
        series = SymbolSequence.from_string("abcaabca" * 2)
        serial = ConvolutionMiner(engine="bitand").periodicity_table(series)
        assert self._miner(workers=32).periodicity_table(series) == serial


class TestNonIntegerCodes:
    """Float codes are rejected, never truncated to the wrong symbols."""

    FLOATS = np.array([0.9, 1.7, 0.2, 1.99])

    def test_sequence_rejects_float_codes(self):
        with pytest.raises(ValueError, match="float64"):
            SymbolSequence.from_codes(self.FLOATS, Alphabet("ab"))
        with pytest.raises(ValueError, match="float64"):
            SymbolSequence(self.FLOATS, Alphabet("ab"))
        with pytest.raises(ValueError, match="float"):
            SymbolSequence.from_codes([0, 1.5], Alphabet("ab"))

    def test_streaming_entry_points_reject_float_codes(self):
        from repro.streaming import PeriodicityMonitor

        sinks = (
            OnlineMiner(Alphabet("ab"), max_period=2),
            SlidingWindowMiner(Alphabet("ab"), max_period=2, window=4),
            PeriodicityMonitor(Alphabet("ab"), period=2, window=4),
        )
        for sink in sinks:
            with pytest.raises(ValueError, match="float64"):
                sink.extend_codes(self.FLOATS)

    def test_append_code_rejects_float_codes(self):
        # append_code used to build an int64 array and count 1.7 as code 1.
        from repro.streaming import PeriodicityMonitor

        alphabet = Alphabet("abc")
        sinks = (
            OnlineMiner(alphabet, max_period=2),
            SlidingWindowMiner(alphabet, max_period=2, window=4),
            PeriodicityMonitor(alphabet, period=3, window=5, check_every=1),
        )
        for sink in sinks:
            with pytest.raises(ValueError, match="float64"):
                sink.append_code(1.7)
            for code in (np.int64(1), np.uint8(2), np.int32(0), 1, 2, 0):
                assert sink.append_code(code) is None
        reference = OnlineMiner(alphabet, max_period=2)
        reference.extend_codes([1, 2, 0, 1, 2, 0])
        assert sinks[0].table() == reference.table()
        assert sinks[2].confidence == 1.0

    def test_python_ints_beyond_int64_are_named(self):
        from repro.core.sequence import integer_codes

        for codes, bad in (
            ([2**64], 2**64),
            ([0, -(2**63) - 1], -(2**63) - 1),
            ([-1, 2**63], 2**63),  # numpy makes this pair float64
        ):
            with pytest.raises(ValueError, match=f"code {bad} out of range"):
                integer_codes(codes)
        with pytest.raises(ValueError, match=f"code {2**64} out of range"):
            OnlineMiner(Alphabet("ab"), max_period=2).extend_codes([2**64])
        with pytest.raises(ValueError, match=f"code {2**64} out of range"):
            SlidingWindowMiner(Alphabet("ab"), max_period=2, window=4).append_code(
                2**64
            )
        # Genuinely non-integer input keeps the dtype error.
        with pytest.raises(ValueError, match="dtype object"):
            integer_codes([2**70, 1.5])
        with pytest.raises(ValueError, match="dtype object"):
            integer_codes(np.array(["a", 1], dtype=object))

    def test_object_arrays_of_ints_are_accepted_like_lists(self):
        from repro.core.sequence import integer_codes

        for items in ([1, 2], [np.int64(3), np.uint8(0), True], [[0, 1], [1, 0]]):
            got = integer_codes(np.array(items, dtype=object))
            assert got.dtype == np.int64
            assert np.array_equal(got, integer_codes(items))
        miner = OnlineMiner(Alphabet("ab"), max_period=2)
        miner.extend_codes(np.array([0, 1, 0, 1], dtype=object))
        reference = OnlineMiner(Alphabet("ab"), max_period=2)
        reference.extend_codes([0, 1, 0, 1])
        assert miner.table() == reference.table()
        with pytest.raises(ValueError, match=f"code {2**64} out of range"):
            integer_codes(np.array([1, 2**64], dtype=object))
        with pytest.raises(ValueError, match="dtype object"):
            integer_codes(np.array([1, 1.5], dtype=object))

    def test_integer_bool_and_empty_codes_stay_accepted(self):
        alphabet = Alphabet("ab")
        assert SymbolSequence.from_codes([0, 1, 1], alphabet).length == 3
        assert SymbolSequence.from_codes(np.array([0, 1], dtype=np.uint8), alphabet).length == 2
        assert SymbolSequence.from_codes(np.array([True, False]), alphabet).length == 2
        assert SymbolSequence.from_codes(np.array([]), alphabet).length == 0
        miner = OnlineMiner(alphabet, max_period=2)
        miner.extend_codes(np.array([]))
        miner.extend_codes([0, 1, 0])
        assert miner.n == 3


class TestStreamingEdges:
    def test_extend_codes_with_empty_block_is_a_noop(self):
        online = OnlineMiner(Alphabet("ab"), max_period=4)
        online.extend_codes([])
        assert online.n == 0
        assert online.table().periods == []
        windowed = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=3)
        windowed.extend_codes([])
        assert windowed.size == 0

    def test_extend_codes_empty_between_blocks_preserves_evidence(self):
        miner = OnlineMiner(Alphabet("ab"), max_period=4)
        miner.extend_codes([0, 1, 0, 1])
        before = miner.table()
        miner.extend_codes([])
        assert miner.table() == before

    def test_streaming_agrees_with_hardened_parallel_engine(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 3, size=240)
        alphabet = Alphabet("abc")
        miner = OnlineMiner(alphabet, max_period=16)
        miner.extend_codes(codes)
        streamed = miner.table()
        series = SymbolSequence.from_codes(codes, alphabet)
        parallel = ConvolutionMiner(
            engine="parallel",
            max_period=16,
            workers=4,
        ).periodicity_table(series)
        assert parallel == streamed


class TestConvolutionSubstrate:
    def test_fft_of_length_one(self):
        from repro.convolution import correlate_fft

        np.testing.assert_allclose(correlate_fft([5.0], None, 0), [25.0])
        np.testing.assert_allclose(correlate_fft([5.0], [2.0], 0), [10.0])

    def test_witnesses_of_minimal_series(self):
        witnesses = ConvolutionMiner().witness_sets(PAIR)
        assert witnesses == {}


class TestSupportEqualToPsi:
    """A support that equals psi is periodic, even where psi * pairs rounds up.

    ``0.55 * 100 == 55.00000000000001``, so comparing ``count >= psi * pairs``
    dropped ``F2 = 55`` over 100 pairs; every path compares ``count / pairs``.
    """

    PSI = 0.55
    # 'a' repeats at period 1, position 0: F2 = 55 over 100 pairs.
    SERIES = SymbolSequence.from_string("a" * 56 + "bc" * 22 + "b")
    HIT = (1, 0, 0, 55, 100)

    @staticmethod
    def _period_one(hits):
        return [
            (h.period, h.position, h.symbol_code, h.f2, h.pairs)
            for h in hits
            if h.period == 1
        ]

    def test_exact_table(self):
        table = brute_force_table(self.SERIES)
        assert table.confidence(1) == self.PSI
        assert table.support(1, 0, 0) == self.PSI
        assert self._period_one(table.periodicities(self.PSI, period=1)) == [self.HIT]
        assert 1 in table.candidate_periods(self.PSI)

    @pytest.mark.parametrize("algorithm", ["spectral", "convolution"])
    def test_mine(self, algorithm):
        result = mine(self.SERIES, self.PSI, algorithm=algorithm, periods=[1])
        assert self._period_one(result.periodicities) == [self.HIT]
        assert [p.support for p in result.patterns] == [self.PSI]

    def test_spectral_pruning_keeps_the_cell(self):
        miner = SpectralMiner(psi=self.PSI)
        assert (1, 0) in miner.candidate_period_symbols(self.SERIES, self.PSI)
        assert miner.periodicity_table(self.SERIES).f2(1, 0, 0) == 55

    def test_online_miner(self):
        online = OnlineMiner(self.SERIES.alphabet, max_period=4)
        online.extend_codes(self.SERIES.codes)
        assert self._period_one(online.periodicities(self.PSI)) == [self.HIT]

    def test_cli_mine(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "boundary.txt"
        path.write_text(self.SERIES.to_string())
        code = main(["mine", str(path), "--psi", str(self.PSI), "--periods", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "periods=[1," in out
        assert "p=1 " in out and "support=0.550" in out

    def test_pattern_level_threshold(self):
        # Period 2, 100 segment rows: 'ab' repeats in exactly 55 of them
        # and so do 'a' at 0 and 'b' at 1 alone.
        series = SymbolSequence.from_string("ab" * 56 + "cddc" * 22 + "cd")
        from repro.core import mine_patterns

        table = brute_force_table(series)
        patterns = mine_patterns(series, table, self.PSI, periods=[2])
        assert [(p.arity, p.support) for p in patterns] == [
            (1, self.PSI), (1, self.PSI), (2, self.PSI)
        ]
