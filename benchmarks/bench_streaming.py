"""Streaming-layer performance: online, sliding-window and monitor ingestion.

Not a paper artifact — operational benchmarks for the streaming
extensions, so regressions in the chunked ingestion paths are caught
(`perfbench/run.py` times the same paths end to end).
Each bench also re-asserts the layer's defining equivalence, because a
fast wrong answer is worse than none.
"""

import numpy as np
import pytest

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.streaming import OnlineMiner, PeriodicityMonitor, SlidingWindowMiner

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
def test_sliding_window_append_throughput(benchmark, codes, series):
    window, fed = 2_048, 6_000  # one symbol per call: ~13k symbols/s

    def run():
        miner = SlidingWindowMiner(
            series.alphabet, max_period=MAX_PERIOD, window=window
        )
        for code in codes[:fed].tolist():
            miner.append_code(code)
        return miner

    miner = benchmark.pedantic(run, rounds=2, iterations=1)
    chunked = SlidingWindowMiner(series.alphabet, max_period=MAX_PERIOD, window=window)
    chunked.extend_codes(codes[:fed])
    assert miner.table() == chunked.table()
    tail = series[fed - window : fed]
    assert miner.table() == SpectralMiner(max_period=MAX_PERIOD).periodicity_table(
        tail
    )


#: ``repro stream`` reads its input this many symbols at a time.
READ_SIZE = 65_536


@pytest.mark.benchmark(group="streaming")
@pytest.mark.parametrize("window", [8_192, 100_000])
def test_sliding_window_block_feeds(benchmark, window):
    # Reads of 65,536 symbols cover an 8k window (only its last 8k are
    # counted) and slide a 100k one (per-lag arrivals and evictions);
    # one whole-series block covers either window.
    n = 200_000
    codes = np.random.default_rng(2005).integers(0, SIGMA, size=n).astype(np.int64)
    alphabet = Alphabet.of_size(SIGMA)

    def run():
        miner = SlidingWindowMiner(alphabet, max_period=MAX_PERIOD, window=window)
        for start in range(0, n, READ_SIZE):
            miner.extend_codes(codes[start : start + READ_SIZE])
        return miner

    read = benchmark.pedantic(run, rounds=1, iterations=1)
    whole = SlidingWindowMiner(alphabet, max_period=MAX_PERIOD, window=window)
    whole.extend_codes(codes)
    batch = SpectralMiner(max_period=MAX_PERIOD).periodicity_table(
        SymbolSequence.from_codes(codes[-window:], alphabet)
    )
    assert read.table() == whole.table() == batch


@pytest.mark.benchmark(group="streaming")
def test_monitor_throughput(benchmark, codes, series):
    period, window = 24, 192

    def run():
        monitor = PeriodicityMonitor(series.alphabet, period=period, window=window)
        for start in range(0, N, period):  # one check per call
            monitor.extend_codes(codes[start : start + period])
        return monitor

    monitor = benchmark.pedantic(run, rounds=2, iterations=1)
    reference = SlidingWindowMiner(series.alphabet, max_period=period, window=window)
    reference.extend_codes(codes)
    assert monitor.confidence == reference.confidence(period)


@pytest.mark.benchmark(group="streaming")
def test_monitor_append_throughput(benchmark, codes, series):
    period, window = 24, 192

    def run():
        monitor = PeriodicityMonitor(series.alphabet, period=period, window=window)
        fired = [monitor.append_code(code) for code in codes.tolist()]
        return monitor, [event for event in fired if event is not None]

    monitor, fired = benchmark.pedantic(run, rounds=2, iterations=1)
    chunked = PeriodicityMonitor(series.alphabet, period=period, window=window)
    assert chunked.extend_codes(codes) == fired
    assert chunked.events == monitor.events
    assert chunked.confidence == monitor.confidence


@pytest.mark.benchmark(group="streaming")
def test_in_memory_reference(benchmark, series):
    miner = SpectralMiner(max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N
