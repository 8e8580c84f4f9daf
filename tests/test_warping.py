"""Tests for repro.baselines.warping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import WarpingDetector, banded_edit_distance
from repro.core import SpectralMiner
from repro.data import apply_noise, generate_periodic


def _reference_edit(a, b) -> int:
    m, n = len(a), len(b)
    table = np.zeros((m + 1, n + 1), dtype=int)
    table[:, 0] = np.arange(m + 1)
    table[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i, j] = min(
                table[i - 1, j] + 1,
                table[i, j - 1] + 1,
                table[i - 1, j - 1] + int(a[i - 1] != b[j - 1]),
            )
    return int(table[m, n])


def _reference_banded(a, b, band: int) -> int:
    """Plain banded DP: cells with |i - j| > band are unreachable."""
    m, n = len(a), len(b)
    band = max(band, abs(m - n))  # the end cell must lie in the band
    big = m + n + 1
    table = np.full((m + 1, n + 1), big, dtype=int)
    for i in range(m + 1):
        for j in range(max(0, i - band), min(n, i + band) + 1):
            if i == 0 or j == 0:
                table[i, j] = i + j
                continue
            table[i, j] = min(
                table[i - 1, j] + 1,
                table[i, j - 1] + 1,
                table[i - 1, j - 1] + int(a[i - 1] != b[j - 1]),
            )
    return int(table[m, n])


class TestBandedEditDistance:
    def test_identical(self):
        a = np.array([1, 2, 3, 1])
        assert banded_edit_distance(a, a, band=2) == 0

    def test_single_substitution(self):
        assert banded_edit_distance([1, 2, 3], [1, 9, 3], band=1) == 1

    def test_single_insertion(self):
        assert banded_edit_distance([1, 2, 3], [1, 2, 9, 3], band=2) == 1

    def test_empty_inputs(self):
        assert banded_edit_distance([], [1, 2], band=2) == 2
        assert banded_edit_distance([1], [], band=1) == 1

    def test_full_band_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 3, size=rng.integers(1, 20))
            b = rng.integers(0, 3, size=rng.integers(1, 20))
            band = max(a.size, b.size)
            assert banded_edit_distance(a, b, band) == _reference_edit(a, b)

    def test_narrow_band_upper_bounds_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 3, size=15)
            b = rng.integers(0, 3, size=rng.integers(12, 18))
            band = max(abs(a.size - b.size), 2)
            banded = banded_edit_distance(a, b, band)
            assert banded >= _reference_edit(a, b)

    def test_narrow_band_matches_banded_dp(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = rng.integers(0, 3, size=rng.integers(0, 25))
            b = rng.integers(0, 3, size=rng.integers(0, 25))
            band = int(rng.integers(0, 6))  # often |m - n| > band
            assert banded_edit_distance(a, b, band) == _reference_banded(a, b, band)

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError):
            banded_edit_distance([1], [1], band=-1)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.lists(st.integers(0, 2), max_size=16),
        b=st.lists(st.integers(0, 2), max_size=16),
    )
    def test_symmetry_at_full_band(self, a, b):
        band = max(len(a), len(b), 1)
        assert banded_edit_distance(a, b, band) == banded_edit_distance(b, a, band)

    @settings(max_examples=30, deadline=None)
    @given(a=st.lists(st.integers(0, 2), min_size=1, max_size=16))
    def test_triangle_with_length_difference(self, a):
        # Distance is at least the length difference.
        b = a[: max(len(a) - 2, 0)]
        band = max(len(a), 1)
        assert banded_edit_distance(a, b, band) >= len(a) - len(b)


class TestWarpingDetector:
    @pytest.fixture(scope="class")
    def noisy_series(self):
        rng = np.random.default_rng(2004)
        clean = generate_periodic(6000, 25, 10, rng=rng)
        return apply_noise(clean, 0.2, "I-D", rng)

    def test_resilient_where_exact_miner_collapses(self, noisy_series):
        """The headline claim of the extension: I/D noise breaks rigid
        shifted comparison but not warped comparison."""
        exact_conf = SpectralMiner(max_period=30).periodicity_table(
            noisy_series
        ).confidence(25)
        warped_conf = WarpingDetector().confidence(noisy_series, 25)
        assert exact_conf < 0.3
        assert warped_conf > 0.55
        assert warped_conf > exact_conf + 0.3

    def test_discriminates_far_periods(self, noisy_series):
        detector = WarpingDetector()
        assert detector.confidence(noisy_series, 25) > (
            detector.confidence(noisy_series, 37) + 0.2
        )

    def test_clean_series_scores_near_one(self, rng):
        series = generate_periodic(2000, 25, 10, rng=rng)
        assert WarpingDetector().confidence(series, 25) > 0.99

    def test_scan_and_best(self, noisy_series):
        detector = WarpingDetector()
        scores = detector.scan(noisy_series, [25, 37])
        assert set(scores) == {25, 37}
        assert detector.best(noisy_series, [25, 37]) == 25

    def test_scan_rejects_empty(self, noisy_series):
        with pytest.raises(ValueError):
            WarpingDetector().scan(noisy_series, [])

    def test_confidence_rejects_bad_period(self, rng):
        series = generate_periodic(100, 5, 3, rng=rng)
        with pytest.raises(ValueError):
            WarpingDetector().confidence(series, 0)
        with pytest.raises(ValueError):
            WarpingDetector().confidence(series, 100)

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError):
            WarpingDetector(band=-1)

    def test_explicit_band_controls_resolution(self, noisy_series):
        tight = WarpingDetector(band=2)
        loose = WarpingDetector(band=30)
        # A loose band blurs a near-miss period up toward the true one.
        assert loose.confidence(noisy_series, 23) > tight.confidence(
            noisy_series, 23
        )
