"""Tests for repro.analysis.anomalies and repro.streaming.monitor."""

import numpy as np
import pytest

from repro.analysis import find_anomalies
from repro.core import Alphabet, SymbolSequence, parse_pattern
from repro.streaming import PeriodicityMonitor


def _series_with_bad_segment() -> SymbolSequence:
    """'abc' repeated, with segment 5 corrupted."""
    text = "abc" * 12
    corrupted = text[:15] + "zzz" + text[18:]
    return SymbolSequence.from_string(corrupted, Alphabet("abcz"))


class TestFindAnomalies:
    def test_flags_the_corrupted_segment(self):
        series = _series_with_bad_segment()
        patterns = [parse_pattern("abc", series.alphabet, support=1.0)]
        anomalies = find_anomalies(series, patterns, threshold=0.5)
        assert [a.segment for a in anomalies] == [5]
        assert anomalies[0].start == 15
        assert anomalies[0].end == 18
        assert anomalies[0].violated == tuple(patterns)

    def test_holiday_in_retail_data(self, rng):
        from repro.core import mine
        from repro.data import RetailTransactionsSimulator

        simulator = RetailTransactionsSimulator(
            days=90, holiday_rate=0.0, hour_jitter_rate=0.0,
            overnight_activity_rate=0.0,
        )
        series = simulator.series(rng)
        # Manufacture one holiday: zero out one full day.
        codes = series.codes.copy()
        codes[24 * 40 : 24 * 41] = 0
        series = SymbolSequence.from_codes(codes, series.alphabet)
        result = mine(series, psi=0.6, max_period=24, periods=[24], max_arity=3)
        patterns = [p for p in result.patterns if p.arity >= 1]
        anomalies = find_anomalies(series, patterns, threshold=0.5, top=3)
        assert any(a.segment == 40 for a in anomalies)

    def test_top_limits_output(self):
        series = SymbolSequence.from_string("zz" * 10, Alphabet("az"))
        pattern = parse_pattern("a*", series.alphabet, support=1.0)
        anomalies = find_anomalies(series, [pattern], threshold=0.5, top=4)
        assert len(anomalies) == 4

    def test_rejects_bad_threshold(self):
        series = _series_with_bad_segment()
        with pytest.raises(ValueError):
            find_anomalies(series, [parse_pattern("abc", series.alphabet)], threshold=0.0)

    def test_clean_segments_score_zero(self):
        series = _series_with_bad_segment()
        patterns = [parse_pattern("abc", series.alphabet, support=1.0)]
        # Any score above zero clears the smallest threshold.
        anomalies = find_anomalies(series, patterns, threshold=1e-9)
        assert [(a.segment, a.score) for a in anomalies] == [(5, 1.0)]

    def test_weighted_by_support(self):
        series = _series_with_bad_segment()
        strong = parse_pattern("a**", series.alphabet, support=0.9)
        weak = parse_pattern("**c", series.alphabet, support=0.1)
        (anomaly,) = find_anomalies(series, [strong, weak], threshold=1e-9)
        # segment 5 violates both -> 1.0; a segment violating only the
        # weak pattern would score 0.1.
        assert anomaly.segment == 5
        assert anomaly.score == pytest.approx(1.0)

    def test_rejects_empty_patterns(self):
        series = _series_with_bad_segment()
        with pytest.raises(ValueError):
            find_anomalies(series, [])

    def test_rejects_mixed_periods(self):
        series = _series_with_bad_segment()
        with pytest.raises(ValueError):
            find_anomalies(
                series,
                [
                    parse_pattern("ab*", series.alphabet),
                    parse_pattern("ab", series.alphabet),
                ],
            )

    def test_rejects_too_short_series(self):
        series = SymbolSequence.from_string("ab", Alphabet("abcz"))
        with pytest.raises(ValueError):
            find_anomalies(series, [parse_pattern("abc", series.alphabet)])


class TestPeriodicityMonitor:
    def test_alarm_on_structure_loss(self, rng):
        alphabet = Alphabet.of_size(4)
        periodic = np.tile(np.array([0, 1, 2, 3]), 100)
        noise = rng.integers(0, 4, size=400)
        monitor = PeriodicityMonitor(
            alphabet, period=4, window=64, floor=0.6, patience=3
        )
        events = monitor.extend_codes(periodic)
        assert events == []  # healthy stream never alarms
        events = monitor.extend_codes(noise)
        assert events, "losing the period must raise an alarm"
        assert monitor.alarmed
        assert events[0].confidence < 0.6

    def test_single_alarm_until_recovery(self, rng):
        alphabet = Alphabet.of_size(4)
        monitor = PeriodicityMonitor(
            alphabet, period=4, window=40, floor=0.6, patience=2
        )
        monitor.extend_codes(np.tile(np.array([0, 1, 2, 3]), 20))
        noise_events = monitor.extend_codes(rng.integers(0, 4, size=300))
        assert len(noise_events) == 1  # no re-alarm while still broken
        recovery_events = monitor.extend_codes(np.tile(np.array([0, 1, 2, 3]), 40))
        assert recovery_events == []
        assert not monitor.alarmed
        assert monitor.confidence > 0.9

    def test_events_accumulate_across_episodes(self, rng):
        alphabet = Alphabet.of_size(4)
        monitor = PeriodicityMonitor(
            alphabet, period=4, window=40, floor=0.6, patience=2
        )
        clean = np.tile(np.array([0, 1, 2, 3]), 30)
        for _ in range(2):
            monitor.extend_codes(clean)
            monitor.extend_codes(rng.integers(0, 4, size=200))
        assert len(monitor.events) == 2

    def test_validation(self):
        alphabet = Alphabet.of_size(3)
        with pytest.raises(ValueError):
            PeriodicityMonitor(alphabet, period=0)
        with pytest.raises(ValueError):
            PeriodicityMonitor(alphabet, period=4, floor=0.0)
        with pytest.raises(ValueError):
            PeriodicityMonitor(alphabet, period=4, patience=0)
        with pytest.raises(ValueError):
            PeriodicityMonitor(alphabet, period=4, window=4)
        with pytest.raises(ValueError):
            PeriodicityMonitor(alphabet, period=4, check_every=0)

    @pytest.mark.parametrize(
        "argument", ["period", "window", "patience", "check_every"]
    )
    def test_rejects_non_integer_arguments(self, argument):
        # check_every=2.5 used to pass construction and per-symbol
        # feeding, then crash extend_codes on a float slice index.
        kwargs = {"period": 4, "window": 40, "patience": 2, "check_every": 4}
        kwargs[argument] += 0.5
        with pytest.raises(TypeError, match=argument):
            PeriodicityMonitor(Alphabet.of_size(3), **kwargs)

    def test_accepts_numpy_integer_arguments(self, rng):
        alphabet = Alphabet.of_size(4)
        codes = rng.integers(0, 4, size=200)
        monitors = [
            PeriodicityMonitor(
                alphabet, period=np.int64(4), window=np.int32(40),
                patience=np.int16(1), check_every=np.uint8(3), floor=0.9,
            )
            for _ in range(2)
        ]
        chunked = monitors[0].extend_codes(codes)
        per_symbol = [monitors[1].append_code(int(c)) for c in codes]
        assert chunked == [e for e in per_symbol if e is not None]
