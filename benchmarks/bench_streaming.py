"""Streaming-layer performance: online and sliding-window ingestion.

Not a paper artifact — operational benchmarks for the streaming
extensions, so regressions in the chunked ingestion paths are caught
(`perfbench/run.py` times the same paths end to end).
Each bench also re-asserts the layer's defining equivalence, because a
fast wrong answer is worse than none.
"""

import numpy as np
import pytest

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.streaming import OnlineMiner, SlidingWindowMiner

N = 20_000
SIGMA = 8
MAX_PERIOD = 128


@pytest.fixture(scope="module")
def codes():
    rng = np.random.default_rng(2004)
    return rng.integers(0, SIGMA, size=N).astype(np.int64)


@pytest.fixture(scope="module")
def series(codes):
    return SymbolSequence.from_codes(codes, Alphabet.of_size(SIGMA))


@pytest.mark.benchmark(group="streaming")
def test_online_miner_throughput(benchmark, codes, series):
    def run():
        miner = OnlineMiner(series.alphabet, max_period=MAX_PERIOD)
        miner.extend_codes(codes)
        return miner

    miner = benchmark.pedantic(run, rounds=2, iterations=1)
    assert miner.table() == SpectralMiner(max_period=MAX_PERIOD).periodicity_table(
        series
    )


@pytest.mark.benchmark(group="streaming")
def test_sliding_window_throughput(benchmark, codes, series):
    window = 2_048

    def run():
        miner = SlidingWindowMiner(
            series.alphabet, max_period=MAX_PERIOD, window=window
        )
        miner.extend_codes(codes)
        return miner

    miner = benchmark.pedantic(run, rounds=2, iterations=1)
    tail = series[N - window :]
    assert miner.table() == SpectralMiner(max_period=MAX_PERIOD).periodicity_table(
        tail
    )


@pytest.mark.benchmark(group="streaming")
def test_in_memory_reference(benchmark, series):
    miner = SpectralMiner(max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N
