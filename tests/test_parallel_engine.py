"""Tests for the threaded count kernel and the ``"parallel"`` engine.

The contract: ``engine="parallel"`` is bit-for-bit indistinguishable
from the serial exact engines, whether the periods run inline (one
worker) or on the thread pool (:func:`repro.core.projection.map_periods`),
and whichever result shape (witness sets or ``F2`` keys).  An exception
raised for any period reaches the caller unchanged.
"""

import importlib
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table
from repro.core import Alphabet, ConvolutionMiner, SymbolSequence
from repro.core.mapping import period_witnesses, witness_keys
from repro.core.projection import (
    f2_counts_for_period,
    f2_keys,
    f2_table_from_keys,
    map_periods,
)

from conftest import random_series, series_strategy

# The module, not the ``projection`` function that ``repro.core``
# re-exports under the same name.
projection = importlib.import_module("repro.core.projection")


def _series(codes, sigma):
    return SymbolSequence.from_codes(np.array(codes), Alphabet.of_size(sigma))


# Inputs the random draws rarely reach.  WIDE has sigma * p past 255: a
# kernel that forms its (symbol, position) keys in the narrowed uint8
# codes wraps them around and miscounts.  UNARY has sigma = 1 and PAIR
# n = 2; every test below also runs them at max_period = n - 1.
WIDE = _series(np.random.default_rng(7).integers(0, 12, 60), 12)
UNARY = _series([0] * 7, 1)
PAIR = _series([1, 1], 2)


class TestCrossEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=50),
        workers=st.integers(1, 4),
        cap=st.none(),
    )
    @example(series=WIDE, workers=2, cap=None)
    @example(series=WIDE, workers=2, cap=59)
    @example(series=UNARY, workers=2, cap=6)
    @example(series=PAIR, workers=2, cap=1)
    def test_witness_sets_identical(self, series, workers, cap):
        """Parallel witness sets == bitand == kronecker."""
        reference = ConvolutionMiner(
            engine="bitand", max_period=cap
        ).witness_sets(series)
        other = ConvolutionMiner(
            engine="kronecker", max_period=cap
        ).witness_sets(series)
        assert reference.keys() == other.keys()
        for p in reference:
            assert reference[p].tolist() == other[p].tolist()
        parallel = ConvolutionMiner(
            engine="parallel", max_period=cap, workers=workers
        ).witness_sets(series)
        assert reference.keys() == parallel.keys()
        for p in reference:
            assert reference[p].tolist() == parallel[p].tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=50),
        workers=st.integers(1, 4),
        cap=st.none(),
    )
    @example(series=WIDE, workers=2, cap=None)
    @example(series=WIDE, workers=2, cap=59)
    @example(series=UNARY, workers=2, cap=6)
    @example(series=PAIR, workers=2, cap=1)
    def test_f2_tables_identical(self, series, workers, cap):
        """Count-only tables == every serial engine == the oracle."""
        parallel = ConvolutionMiner(
            engine="parallel", max_period=cap, workers=workers
        ).periodicity_table(series)
        for engine in ("bitand", "kronecker"):
            assert parallel == ConvolutionMiner(
                engine=engine, max_period=cap
            ).periodicity_table(series)
        assert parallel == brute_force_table(series, max_period=cap)

    @settings(max_examples=40, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=40),
        cap=st.integers(1, 45),
    )
    @example(series=WIDE, cap=59)
    @example(series=UNARY, cap=6)
    @example(series=PAIR, cap=1)
    def test_max_period_cap_respected(self, series, cap):
        """Capped parallel runs agree with capped serial runs, even when
        the cap exceeds n//2 (it clamps to n-1 like the serial path)."""
        reference = ConvolutionMiner(
            engine="bitand", max_period=cap
        ).periodicity_table(series)
        parallel = ConvolutionMiner(
            engine="parallel", max_period=cap, workers=2
        ).periodicity_table(series)
        assert parallel == reference

    def test_sigma_one_series(self):
        series = SymbolSequence.from_string("aaaaaaa")
        parallel = ConvolutionMiner(engine="parallel").periodicity_table(series)
        assert parallel == brute_force_table(series)
        assert parallel.confidence(1) == pytest.approx(1.0)

    def test_tiny_series(self):
        for text in ("ab", "aa", "abc"):
            series = SymbolSequence.from_string(text)
            miner = ConvolutionMiner(engine="parallel")
            assert miner.periodicity_table(series) == brute_force_table(series)
        assert ConvolutionMiner(engine="parallel").witness_sets(
            SymbolSequence.from_string("a")
        ) == {}

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ConvolutionMiner(engine="parallel", workers=0)


class TestBackends:
    """Threads and the inline serial loop match the bitand reference."""

    BACKEND_WORKERS = {"thread": 2, "serial": 1}

    @pytest.fixture(scope="class")
    def medium(self):
        rng = np.random.default_rng(20040314)
        return random_series(rng, 2_000, 4)

    @pytest.fixture(scope="class")
    def reference(self, medium):
        return ConvolutionMiner(engine="bitand", max_period=60).f2_tables(
            medium
        )

    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_counts_match_reference(self, medium, reference, backend):
        workers = self.BACKEND_WORKERS[backend]
        keys = f2_keys(medium.codes, medium.sigma, 60, workers)
        assert list(keys) == list(range(1, 61))
        tables = {
            p: f2_table_from_keys(k, c, p) for p, (k, c) in keys.items() if k.size
        }
        assert tables == reference

    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_witnesses_match_reference(self, medium, reference, backend):
        witnesses = ConvolutionMiner(
            engine="parallel", max_period=60,
            workers=self.BACKEND_WORKERS[backend],
        ).witness_sets(medium)
        rebuilt = {
            p: f2_table_from_keys(
                *witness_keys(w, medium.length, medium.sigma, p), p
            )
            for p, w in witnesses.items()
            if w.size
        }
        assert rebuilt == reference


class TestShardErrors:
    def test_shard_exception_propagates_then_engine_recovers(
        self, monkeypatch
    ):
        """A failing period aborts the run with its own exception, and
        no partial table comes back; the next clean run is exact."""
        series = random_series(np.random.default_rng(5), 400, 3)
        reference = ConvolutionMiner(engine="bitand").periodicity_table(
            series
        )
        miner = ConvolutionMiner(engine="parallel", workers=2)

        class ShardBoom(RuntimeError):
            pass

        def failing(codes, sigma, p):
            if p == 37:
                raise ShardBoom(f"period {p}")
            return f2_counts_for_period(codes, sigma, p)

        with monkeypatch.context() as patch:
            patch.setattr(projection, "f2_counts_for_period", failing)
            with pytest.raises(ShardBoom, match="period 37"):
                miner.periodicity_table(series)
        assert miner.periodicity_table(series) == reference


class TestCountFastPath:
    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(min_size=3, max_size=60))
    @example(series=WIDE)
    def test_component_counts_equal_witness_decode(self, series):
        """The per-period bincount == decode-then-group of ``W_p``."""
        codes, n, sigma = series.codes, series.length, series.sigma
        for p in range(1, n):
            fast = f2_counts_for_period(codes, sigma, p)
            keys, counts = witness_keys(
                period_witnesses(codes, sigma, p), n, sigma, p
            )
            assert np.flatnonzero(fast).tolist() == keys.tolist()
            assert fast[keys].tolist() == counts.tolist()

    def test_out_of_range_period_is_empty(self):
        codes = np.array([0, 1, 1, 0])
        assert period_witnesses(codes, sigma=2, period=4).size == 0
        assert period_witnesses(codes, sigma=2, period=0).size == 0
        assert not f2_counts_for_period(codes, sigma=2, p=4).any()
        with pytest.raises(ValueError):
            f2_counts_for_period(codes, sigma=2, p=0)


class TestShardPlanner:
    """:func:`map_periods` over contiguous period ranges."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """Swap the thread pool for an inline one that records its size
        and the period ranges handed to it."""
        record = SimpleNamespace(sizes=[], ranges=[])

        class InlinePool:
            def __init__(self, max_workers):
                record.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, parts):
                parts = list(parts)
                record.ranges.extend(parts)
                return map(fn, parts)

        monkeypatch.setattr(projection, "ThreadPoolExecutor", InlinePool)
        return record

    def test_covers_range_exactly(self):
        """The kernel runs exactly once per period, and the results come
        back in period order, for any worker count."""
        for workers in range(1, 9):
            for max_period in (0, 1, 3, 1000):
                calls = []
                lock = threading.Lock()

                def kernel(p):
                    with lock:
                        calls.append(p)
                    return -p

                out = map_periods(kernel, max_period, workers)
                expected = list(range(1, max_period + 1))
                assert sorted(calls) == expected
                assert out == [-p for p in expected]

    def test_oversubscribes_but_balances(self, pool):
        assert map_periods(lambda p: p, 1000, 4) == list(range(1, 1001))
        assert pool.sizes == [4]
        assert len(pool.ranges) == 16
        assert [p for part in pool.ranges for p in part] == list(range(1, 1001))
        sizes = [len(part) for part in pool.ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_range(self, pool):
        for max_period in (0, -1):
            assert map_periods(self._never, max_period, 4) == []
        assert pool.sizes == []

    def test_workers_clamped_to_periods(self, pool):
        # 16 workers over 3 periods: three threads, one period each.
        assert map_periods(lambda p: p, 3, 16) == [1, 2, 3]
        assert pool.sizes == [3]
        assert pool.ranges == [range(1, 2), range(2, 3), range(3, 4)]

    def test_single_worker_single_shard(self, pool):
        """One worker, or one period, runs inline on the calling thread."""
        caller = threading.get_ident()
        for max_period, workers in ((1000, 1), (1, 8)):
            threads = set(
                map_periods(lambda p: threading.get_ident(), max_period, workers)
            )
            assert threads == {caller}
        assert pool.sizes == []

    def test_rejects_bad_arguments(self):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                map_periods(self._never, 10, workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                f2_keys(np.zeros(5, dtype=np.int64), 1, 2, workers)
        with pytest.raises(TypeError, match="workers must be an integer"):
            map_periods(self._never, 10, 2.5)

    @staticmethod
    def _never(p):
        raise AssertionError(f"kernel called for period {p}")


class TestErrorMessages:
    def test_kronecker_refusal_states_product_and_limit(self, rng):
        series = random_series(rng, 20_000, 3)
        with pytest.raises(ValueError) as excinfo:
            ConvolutionMiner(engine="kronecker").witness_sets(series)
        message = str(excinfo.value)
        assert "60,000" in message  # sigma*n, the quantity the limit caps
        assert "30,000" in message  # the limit itself
        assert "3,600,000,000" in message  # the product's bit size
        assert "parallel" in message and "bitand" in message
