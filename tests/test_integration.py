"""Integration tests: full pipelines across modules."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # end-to-end runs; `make test-fast` skips them

from repro import (
    ChunkedReader,
    ConvolutionMiner,
    OnlineMiner,
    SpectralMiner,
    mine,
)
from repro.baselines import MaHellerstein, PeriodicTrends
from repro.data import (
    PowerConsumptionSimulator,
    RetailTransactionsSimulator,
    apply_noise,
    generate_periodic,
)
from repro.streaming import write_symbol_file


class TestEndToEndSynthetic:
    def test_noisy_embedded_period_recovered(self, rng):
        series = apply_noise(
            generate_periodic(8000, 25, 10, rng=rng), 0.15, "R", rng
        )
        result = mine(series, psi=0.5, max_period=60)
        assert 25 in result.candidate_periods
        assert 23 not in result.candidate_periods

    def test_exact_and_spectral_agree_end_to_end(self, rng):
        series = apply_noise(
            generate_periodic(300, 7, 4, rng=rng), 0.1, "R", rng
        )
        spectral = mine(series, psi=0.4, max_period=30)
        exact = mine(series, psi=0.4, max_period=30, algorithm="convolution")
        assert {(p.period, p.slots) for p in spectral.patterns} == {
            (p.period, p.slots) for p in exact.patterns
        }

    def test_patterns_reconstruct_the_generator(self, rng):
        """On clean data the top full-arity pattern IS the base pattern."""
        base = np.array([0, 1, 2, 1, 3])
        series = generate_periodic(200, 5, 4, rng=rng, pattern=base)
        result = mine(series, psi=0.9, periods=[5])
        full = [p for p in result.patterns if p.arity == 5]
        assert len(full) == 1
        assert full[0].slots == tuple(int(c) for c in base)


class TestEndToEndRealistic:
    def test_power_weekly_pipeline(self, rng):
        simulator = PowerConsumptionSimulator()
        series = simulator.series(rng)
        result = mine(series, psi=0.6, max_period=30, periods=[7])
        assert 7 in result.candidate_periods
        weekly = result.patterns_for(7)
        assert weekly and all(p.support >= 0.6 for p in weekly)

    def test_retail_daily_pipeline(self, rng):
        series = RetailTransactionsSimulator(days=90).series(rng)
        result = mine(series, psi=0.7, max_period=30, periods=[24], max_arity=4)
        assert 24 in result.candidate_periods
        rendered = {p.to_string(result.alphabet) for p in result.single_patterns}
        assert any(s.startswith("a") or "a" in s for s in rendered)

    def test_retail_daily_period_in_two_months(self, rng):
        series = RetailTransactionsSimulator(days=60).series(rng)
        mined = mine(series, psi=0.7, max_period=30, periods=[24], max_arity=2)
        assert 24 in mined.candidate_periods


class TestBaselinesComparison:
    def test_all_detectors_find_a_strong_planted_period(self, rng):
        series = apply_noise(
            generate_periodic(3000, 12, 6, rng=rng), 0.05, "R", rng
        )
        table = SpectralMiner(psi=0.5, max_period=100).periodicity_table(series)
        assert 12 in table.candidate_periods(0.7)

        trends = PeriodicTrends(method="exact").analyse(series, max_shift=100)
        assert trends.confidence(12) > 0.85

        ma = MaHellerstein().candidate_periods(series)
        assert 12 in ma  # period 12 symbols recur at adjacent gap 12 often

    def test_miner_finds_what_adjacent_gaps_miss(self):
        """Composite series where a symbol's period never shows as an
        adjacent gap but the miner's projections see it."""
        # s at 0, 4, 5, 7, 10 repeated every 12 -> gaps {4,1,2,3,2}; the
        # pattern itself is periodic at 12.
        block = ["x"] * 12
        for position in (0, 4, 5, 7, 10):
            block[position] = "s"
        from repro.core import SymbolSequence

        series = SymbolSequence.from_symbols(block * 20)
        table = SpectralMiner(max_period=40).periodicity_table(series)
        assert table.confidence(12) == pytest.approx(1.0)
        gaps = MaHellerstein().adjacent_gaps(series, series.alphabet.code("s"))
        assert 12 not in set(gaps.tolist())


class TestStreamingParity:
    def test_file_stream_online_and_batch_all_agree(self, rng, tmp_path):
        series = apply_noise(
            generate_periodic(2000, 16, 5, rng=rng), 0.1, "R", rng
        )
        cap = 40

        batch = SpectralMiner(max_period=cap).periodicity_table(series)

        path = write_symbol_file(series, tmp_path / "stream.txt")
        reader = ChunkedReader(path, alphabet=series.alphabet, block_size=256)
        from_file = OnlineMiner(series.alphabet, max_period=cap)
        assert reader.feed_into(from_file) == series.length
        streamed = from_file.table()

        online = OnlineMiner(series.alphabet, max_period=cap)
        online.consume(series)

        assert batch == streamed
        assert batch == online.table()

    def test_online_prefix_consistency(self, rng):
        """After consuming a prefix, the online table equals batch-mining
        that prefix — at any point in the stream."""
        series = generate_periodic(600, 9, 4, rng=rng)
        online = OnlineMiner(series.alphabet, max_period=12)
        checkpoints = (100, 350, 600)
        position = 0
        for checkpoint in checkpoints:
            online.extend_codes(series.codes[position:checkpoint])
            position = checkpoint
            prefix = series[:checkpoint]
            batch = SpectralMiner(max_period=12).periodicity_table(prefix)
            assert online.table() == batch


class TestWitnessFaithfulness:
    def test_witness_supports_match_pattern_supports(self, rng):
        """The paper's W'_p alignment (same repetition index) equals the
        segment-based multi-symbol support used by the pattern miner."""
        from repro.core import decode_witness, segment_match_matrix, pattern_support
        from repro.core import PeriodicPattern

        series = apply_noise(
            generate_periodic(120, 6, 3, rng=rng), 0.1, "R", rng
        )
        period = 6
        witnesses = ConvolutionMiner(max_period=period).witness_sets(series)
        if period not in witnesses:
            pytest.skip("no witnesses at the test period for this draw")
        decoded = [
            decode_witness(int(w), series.length, series.sigma, period)
            for w in witnesses[period]
        ]
        # Group witnesses by repetition; a pattern with items {(l, k)} is
        # supported by repetition m iff every item has a witness at m.
        by_repetition: dict[int, set[tuple[int, int]]] = {}
        for d in decoded:
            by_repetition.setdefault(d.repetition, set()).add(
                (d.position, d.symbol_code)
            )
        matrix = segment_match_matrix(series, period)
        items = [(d.position, d.symbol_code) for d in decoded[:2]]
        pattern = PeriodicPattern.from_items(period, dict(items))
        aligned = sum(
            1
            for supported in by_repetition.values()
            if set(pattern.items) <= supported
        )
        assert aligned / matrix.shape[0] == pytest.approx(
            pattern_support(pattern, matrix)
        )
