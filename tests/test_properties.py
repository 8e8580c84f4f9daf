"""Cross-module property-based invariants (hypothesis).

The deep consistency net: relations that must hold between *different*
subsystems, on arbitrary series, independent of the examples the unit
tests pin.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table, exact_self_distances
from repro.convolution import correlate_fft
from repro.core import (
    Alphabet,
    ConvolutionMiner,
    SpectralMiner,
    SymbolSequence,
    PeriodicityTable,
    SymbolPeriodicity,
    mine_patterns,
    pattern_support,
    segment_match_matrix,
    segment_supports,
)
from repro.core.spectral_miner import _min_pairs
from repro.streaming import OnlineMiner, SlidingWindowMiner
from repro.testing import oracle_table

from conftest import series_strategy


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=3, max_size=50))
def test_segment_support_complements_self_distance(series):
    """segment_support(p) * (n-p) + D(p) == n - p for every shift."""
    supports = segment_supports(series)
    distances = exact_self_distances(series, max_shift=supports.size - 1)
    n = series.length
    for p in range(1, supports.size):
        matches = supports[p] * (n - p)
        assert matches + distances[p] == pytest.approx(n - p)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=4, max_size=40))
def test_confidence_never_exceeds_segment_evidence_bound(series):
    """A symbol's F2 at (p, l) is bounded by the total matches at p."""
    table = SpectralMiner().periodicity_table(series)
    counts = SpectralMiner().match_counts(series)
    for p in table.periods:
        if p >= counts.shape[1]:
            continue
        for (k, l), f2 in table.counts_for(p).items():
            assert f2 <= counts[k, p]


@settings(max_examples=30, deadline=None)
@given(
    series=series_strategy(min_size=4, max_size=40),
    split=st.integers(1, 39),
)
def test_prefix_online_equals_batch(series, split):
    """Online mining any prefix equals batch mining that prefix."""
    split = min(split, series.length)
    cap = max(series.length // 3, 1)
    online = OnlineMiner(series.alphabet, max_period=cap)
    online.extend_codes(series.codes[:split])
    prefix = series[:split]
    assert online.table() == SpectralMiner(max_period=cap).periodicity_table(prefix)


@settings(max_examples=30, deadline=None)
@given(
    series=series_strategy(min_size=3, max_size=60),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=20),
)
def test_window_covering_whole_stream_equals_online(series, sizes):
    """A sliding window longer than the stream forgets nothing: after
    every chunk it is the online miner, reads and span alike."""
    cap = max(series.length // 4, 1)
    window = series.length + 5
    sliding = SlidingWindowMiner(series.alphabet, max_period=cap, window=window)
    online = OnlineMiner(series.alphabet, max_period=cap)
    bounds = np.cumsum([0, *sizes])
    for first, stop in zip(bounds[:-1], bounds[1:]):
        chunk = series.codes[first:stop]
        sliding.extend_codes(chunk)
        online.extend_codes(chunk)
        assert sliding.table() == online.table()
        assert [sliding.confidence(p) for p in range(1, cap + 1)] == [
            online.confidence(p) for p in range(1, cap + 1)
        ]
        assert (sliding.n, sliding.start, sliding.size) == (
            online.n, online.start, online.size,
        ) == (min(stop, series.length), 0, min(stop, series.length))


@settings(max_examples=30, deadline=None)
@given(series=series_strategy(min_size=6, max_size=40, max_sigma=3))
def test_mined_pattern_supports_recount_exactly(series):
    """Every mined multi-symbol support equals an independent recount."""
    table = ConvolutionMiner().periodicity_table(series)
    for pattern in mine_patterns(series, table, psi=0.4, max_arity=3):
        if pattern.arity < 2:
            continue
        matrix = segment_match_matrix(series, pattern.period)
        assert pattern.support == pytest.approx(pattern_support(pattern, matrix))


@settings(max_examples=30, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_reversal_preserves_match_totals(series):
    """Reversing the series preserves every per-symbol shifted-match
    count (pairs just swap roles)."""
    reversed_series = SymbolSequence.from_codes(
        series.codes[::-1].copy(), series.alphabet
    )
    forward = SpectralMiner().match_counts(series)
    backward = SpectralMiner().match_counts(reversed_series)
    np.testing.assert_array_equal(forward, backward)


@settings(max_examples=30, deadline=None)
@given(
    series=series_strategy(min_size=2, max_size=30),
    repeats=st.integers(2, 4),
)
def test_tiling_makes_length_a_perfect_period(series, repeats):
    """Concatenating a series with itself k times makes n a period with
    confidence 1 (every symbol repeats exactly n apart)."""
    tiled = series
    for _ in range(repeats - 1):
        tiled = tiled.concatenated(series)
    table = SpectralMiner(max_period=series.length).periodicity_table(tiled)
    assert table.confidence(series.length) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(series=series_strategy(min_size=4, max_size=36))
def test_periodicities_are_exactly_the_thresholded_table(series):
    """periodicities(psi) is precisely the set of table cells whose
    support clears psi — no more, no fewer."""
    table = brute_force_table(series)
    psi = 0.5
    reported = {
        (h.period, h.position, h.symbol_code) for h in table.periodicities(psi)
    }
    expected = set()
    for p in table.periods:
        for (k, l), _ in table.counts_for(p).items():
            if table.support(p, k, l) >= psi:
                expected.add((p, l, k))
    assert reported == expected


def _per_symbol_match_counts(series, cap):
    """The former detector: one ``correlate_fft`` per symbol's indicator."""
    counts = np.zeros((series.sigma, cap + 1), dtype=np.int64)
    for k in range(series.sigma):
        indicator = series.indicator(k)
        if indicator.any():
            counts[k] = np.rint(correlate_fft(indicator, use_numpy=True)[: cap + 1])
    return counts


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=60), cap=st.integers(1, 60))
@example(series=SymbolSequence.from_codes([0, 0], Alphabet.of_size(1)), cap=1)
def test_batched_match_counts_equal_per_symbol_fft(series, cap):
    """One batched rfft gives the per-symbol autocorrelations exactly."""
    cap = min(cap, series.length - 1)
    counts = SpectralMiner(max_period=cap).match_counts(series)
    assert np.array_equal(counts, _per_symbol_match_counts(series, cap))


# -- the psi bound read off the kernel's counts --------------------------------


@st.composite
def _bound_inputs(draw):
    sigma = draw(st.integers(1, 4))
    codes = draw(st.lists(st.integers(0, sigma - 1), min_size=2, max_size=40))
    n = len(codes)
    cap = draw(st.integers(1, n - 1))
    # The bound's exact ratios M_k(p) / min_pairs(p) that a psi can equal.
    boundary = set()
    for p in range(1, cap + 1):
        fewest = max(-(-(n - p + 1) // p) - 1, 1)
        for k in range(sigma):
            matches = sum(codes[j] == codes[j + p] == k for j in range(n - p))
            if 0 < matches <= fewest:
                boundary.add(matches / fewest)
    psi = draw(st.one_of(st.sampled_from(sorted(boundary) or [1.0]),
                         st.floats(0.01, 1.0)))
    workers = draw(st.sampled_from([1, 2]))
    return codes, sigma, cap, psi, workers


@settings(max_examples=60, deadline=None)
@given(inputs=_bound_inputs())
@example(inputs=([0, 0], 1, 1, 1.0, 1))  # sigma = 1, n = 2, M / min_pairs == psi
@example(inputs=([0, 0], 1, 1, 1.0, 2))
@example(inputs=([0, 1], 2, 1, 0.5, 2))  # n = 2, no cells at all
@example(inputs=([0] * 56 + [1, 2] * 22 + [1], 3, 3, 0.55, 2))
def test_bounded_table_equals_fft_bounded_exact_table(inputs):
    """The kernel-read bound keeps exactly the cells the FFT bound kept.

    Oracle: the exact ``engine="parallel"`` table, filtered by the former
    spectral-stage test ``match_counts / _min_pairs >= psi``.
    """
    codes, sigma, cap, psi, workers = inputs
    series = SymbolSequence.from_codes(
        np.array(codes, dtype=np.int64), Alphabet.of_size(sigma)
    )
    n = series.length
    exact = ConvolutionMiner(
        engine="parallel", max_period=cap, workers=workers
    ).periodicity_table(series)
    detected = SpectralMiner(max_period=cap).match_counts(series)
    keep = detected / _min_pairs(n, cap + 1) >= psi
    expected = PeriodicityTable(n, series.alphabet, {
        p: {(k, l): c for (k, l), c in exact.counts_for(p).items() if keep[k, p]}
        for p in exact.periods
    })
    bounded = SpectralMiner(psi=psi, max_period=cap, workers=workers)
    assert bounded.periodicity_table(series) == expected


# -- the columnar table against the dict-of-dicts algorithms -------------------
#
# The functions below are the table's former dict-based queries, kept as
# the reference (with the support compared as ``count / pairs >= psi``).


def _ref_pairs(n, p, l):
    return max(-(-(n - l) // p) - 1, 0) if l < n else 0


def _ref_counts(series, cap):
    codes, n = series.codes.tolist(), series.length
    counts = {}
    for p in range(1, min(cap, n - 1) + 1):
        cells = {}
        for j in range(n - p):
            if codes[j] == codes[j + p]:
                key = (codes[j], j % p)
                cells[key] = cells.get(key, 0) + 1
        if cells:
            counts[p] = cells
    return counts


def _ref_periodicities(n, counts, psi, period=None, min_pairs=1):
    if period is None:
        items = sorted(counts.items())
    else:
        items = [(period, counts.get(period, {}))]
    hits = []
    for p, cells in items:
        for (k, l), count in cells.items():
            pairs = _ref_pairs(n, p, l)
            if pairs >= min_pairs and count / pairs >= psi:
                hits.append(SymbolPeriodicity(p, l, k, count, pairs))
    hits.sort(key=lambda h: (h.period, h.position, h.symbol_code))
    return hits


def _ref_confidence(n, counts, p):
    best = 0.0
    for (_, l), count in counts.get(p, {}).items():
        pairs = _ref_pairs(n, p, l)
        if pairs > 0:
            best = max(best, count / pairs)
    return best


def _ref_support(n, counts, p, k, l):
    pairs = _ref_pairs(n, p, l)
    return counts.get(p, {}).get((k, l), 0) / pairs if pairs > 0 else 0.0


@st.composite
def _table_inputs(draw):
    sigma = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, sigma - 1), max_size=40))
    cap = draw(st.integers(1, 30))
    psi = draw(st.one_of(
        st.floats(0.01, 1.0), st.sampled_from([0.5, 0.55, 2 / 3, 1.0])
    ))
    min_pairs = draw(st.integers(1, 4))
    return codes, sigma, cap, psi, min_pairs


@settings(max_examples=40, deadline=None)
@given(inputs=_table_inputs())
@example(inputs=([], 2, 5, 0.5, 1))  # empty table
@example(inputs=([0, 0], 2, 1, 1.0, 1))  # n = 2
@example(inputs=([0, 1], 2, 3, 0.5, 1))  # n = 2, no cells at all
@example(inputs=([0, 1] * 5, 2, 4, 0.5, 2))  # odd periods have no cells
@example(inputs=([0] * 56 + [1, 2] * 22 + [1], 3, 3, 0.55, 1))  # support == psi
def test_columnar_table_matches_dict_reference(inputs):
    """Every builder's table answers every query like the dict algorithms."""
    codes, sigma, cap, psi, min_pairs = inputs
    series = SymbolSequence.from_codes(
        np.array(codes, dtype=np.int64), Alphabet.of_size(sigma)
    )
    n = series.length
    counts = _ref_counts(series, cap)
    online = OnlineMiner(series.alphabet, max_period=cap)
    online.extend_codes(series.codes)
    tables = {
        "mapping": PeriodicityTable(n, series.alphabet, counts),
        "spectral": SpectralMiner(max_period=cap).periodicity_table(series),
        "parallel": ConvolutionMiner(
            engine="parallel", max_period=cap, workers=2
        ).periodicity_table(series),
        "from_dense": online.table(),
    }
    assert oracle_table(series, max_period=cap) == tables["mapping"]
    # Exact supports of the table, so psi also lands on the boundary.
    boundary = sorted({
        count / _ref_pairs(n, p, l)
        for p, cells in counts.items()
        for (_, l), count in cells.items()
    })[:10]
    # Periods 1 .. cap + 2: empty periods, and periods above the cap.
    probe = range(1, cap + 3)
    for name, table in tables.items():
        assert table == tables["mapping"], name
        assert table.periods == sorted(counts), name
        for threshold in [psi, *boundary]:
            assert table.periodicities(threshold, min_pairs=min_pairs) == (
                _ref_periodicities(n, counts, threshold, min_pairs=min_pairs)
            ), name
            assert table.candidate_periods(threshold, min_pairs=min_pairs) == sorted(
                {h.period for h in _ref_periodicities(
                    n, counts, threshold, min_pairs=min_pairs
                )}
            ), name
        for p in probe:
            assert table.periodicities(psi, period=p, min_pairs=min_pairs) == (
                _ref_periodicities(n, counts, psi, period=p, min_pairs=min_pairs)
            ), name
            assert table.confidence(p) == _ref_confidence(n, counts, p), name
            assert table.counts_for(p) == counts.get(p, {}), name
            for k in range(sigma):
                for l in range(p):
                    assert table.f2(p, k, l) == counts.get(p, {}).get((k, l), 0)
                    assert table.support(p, k, l) == _ref_support(
                        n, counts, p, k, l
                    ), name
