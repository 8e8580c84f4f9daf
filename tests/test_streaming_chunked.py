"""Chunked-ingestion equivalence: every chunking == per-symbol feeding.

The PR that vectorised the streaming layer keeps a hard guarantee: the
chunk size is a pure performance knob.  These tests drive the online
miner, the sliding-window miner, and the drift monitor with random
chunkings — including chunk boundaries straddling window evictions and
chunks larger than the window itself — and assert bit-for-bit equality
of the evidence (and of the fired ``DriftEvent`` sequences) against
per-symbol feeding and against batch mining.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.core.periodicity import PeriodicityTable, dense_offsets, dense_size
from repro.core.projection import projection_pairs
from repro.streaming import counts, online
from repro.streaming import (
    BULK_BLOCK_SIZE,
    ChunkedReader,
    DenseCountStore,
    OnlineMiner,
    PeriodicityMonitor,
    SlidingWindowMiner,
)
from repro.streaming.counts import block_confidence, index_dtype


def _chunks(codes: np.ndarray, sizes: list[int]):
    """Split ``codes`` into consecutive chunks with the given sizes."""
    position = 0
    for size in sizes:
        if position >= codes.size:
            return
        yield codes[position : position + size]
        position += size
    if position < codes.size:
        yield codes[position:]


chunk_sizes = st.lists(st.integers(1, 50), min_size=1, max_size=20)


class TestOnlineChunked:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), min_size=1, max_size=150),
        cap=st.integers(1, 20),
        sizes=chunk_sizes,
    )
    def test_any_chunking_equals_per_symbol(self, codes, cap, sizes):
        codes = np.array(codes, dtype=np.int64)
        alphabet = Alphabet.of_size(4)
        chunked = OnlineMiner(alphabet, max_period=cap)
        for chunk in _chunks(codes, sizes):
            chunked.extend_codes(chunk)
        scalar = OnlineMiner(alphabet, max_period=cap)
        for code in codes:
            scalar.append_code(int(code))
        assert chunked.table() == scalar.table()
        assert chunked.n == scalar.n == codes.size

    def test_one_shot_equals_batch(self, rng):
        codes = rng.integers(0, 5, size=400).astype(np.int64)
        alphabet = Alphabet.of_size(5)
        miner = OnlineMiner(alphabet, max_period=30)
        for chunk in _chunks(codes, [64] * 7):
            miner.extend_codes(chunk)
        series = SymbolSequence.from_codes(codes, alphabet)
        assert miner.table() == SpectralMiner(max_period=30).periodicity_table(series)

    def test_confidence_reads_live_counts(self, rng):
        miner = OnlineMiner(Alphabet.of_size(4), max_period=12)
        miner.extend_codes(rng.integers(0, 4, size=300).astype(np.int64))
        snapshot = miner.table()
        for period in (1, 4, 7, 12):
            assert miner.confidence(period) == pytest.approx(
                snapshot.confidence(period)
            )

    def test_rejects_out_of_range_chunk(self):
        miner = OnlineMiner(Alphabet.of_size(3), max_period=4)
        with pytest.raises(ValueError):
            miner.extend_codes(np.array([0, 1, 7], dtype=np.int64))
        with pytest.raises(ValueError):
            miner.extend_codes(np.array([-1], dtype=np.int64))

    def test_uint64_code_reported_unwrapped(self):
        # The int64 cast used to wrap 2**63 to -2**63 in the message.
        miner = OnlineMiner(Alphabet.of_size(3), max_period=4)
        with pytest.raises(ValueError, match=f"code {2**63} out of range"):
            miner.extend_codes(np.array([1, 2**63], dtype=np.uint64))
        with pytest.raises(ValueError, match="code 3 out of range"):
            miner.extend_codes(np.array([3], dtype=np.uint64))
        miner.extend_codes(np.array([2, 0, 1], dtype=np.uint64))
        assert miner.n == 3


def _feed(codes: np.ndarray, cap: int, sizes: list[int], sigma: int) -> OnlineMiner:
    """An online miner fed ``codes`` in blocks of ``sizes``."""
    miner = OnlineMiner(Alphabet.of_size(sigma), max_period=cap)
    for block in _chunks(codes, sizes):
        miner.extend_codes(block)
    return miner


def _assert_same_evidence(miner: OnlineMiner, codes: np.ndarray, sigma: int) -> None:
    """``miner`` equals per-symbol feeding and the batch table of ``codes``."""
    cap = miner.max_period
    alphabet = Alphabet.of_size(sigma)
    scalar = OnlineMiner(alphabet, max_period=cap)
    for code in codes:
        scalar.append_code(int(code))
    batch = SpectralMiner(max_period=cap).periodicity_table(
        SymbolSequence.from_codes(codes, alphabet)
    )
    assert miner.table() == scalar.table() == batch
    for period in range(1, cap + 1):
        assert miner.confidence(period) == scalar.confidence(period)


class TestBulkBlocks:
    """Blocks of ``BULK_BLOCK_SIZE`` arrivals or more are counted per lag.

    The threshold is lowered to ``T`` so that per-symbol feeding stays
    cheap; the sizes are chosen around it.  One test runs at the real
    threshold against the batch table.
    """

    T = 16

    @pytest.fixture
    def bulk_sizes(self, monkeypatch):
        """The sizes of the blocks that reach ``add_block``."""
        monkeypatch.setattr(online, "BULK_BLOCK_SIZE", self.T)
        sizes = []
        add_block = DenseCountStore.add_block

        def spy(store, history, block, first_index):
            sizes.append(block.size)
            add_block(store, history, block, first_index)

        monkeypatch.setattr(DenseCountStore, "add_block", spy)
        return sizes

    @pytest.mark.parametrize(
        "sigma, cap, sizes, bulk",
        [
            pytest.param(3, 8, [T - 1, T, T - 1], [T], id="threshold-1-and-threshold"),
            pytest.param(3, 12, [5, 2 * T], [2 * T], id="prefix-shorter-than-cap"),
            pytest.param(4, 6, [T, 1, 1, 1, 1, 1], [T], id="bulk-then-appends"),
            pytest.param(1, 7, [3, T, 2, T], [T, T], id="sigma-1"),
            pytest.param(2, 40, [3, T, T + 9], [T, T + 9], id="cap-beyond-prefix"),
        ],
    )
    def test_equals_per_symbol_and_batch(
        self, rng, bulk_sizes, sigma, cap, sizes, bulk
    ):
        codes = rng.integers(0, sigma, size=sum(sizes)).astype(np.int64)
        miner = _feed(codes, cap, sizes, sigma)
        assert bulk_sizes == bulk
        _assert_same_evidence(miner, codes, sigma)

    @settings(max_examples=30, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 2), min_size=1, max_size=150),
        cap=st.integers(1, 30),
        sizes=chunk_sizes,
    )
    def test_any_blocking_equals_per_symbol(self, codes, cap, sizes):
        codes = np.array(codes, dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(online, "BULK_BLOCK_SIZE", self.T)
            miner = _feed(codes, cap, sizes, 3)
        _assert_same_evidence(miner, codes, 3)

    def test_real_threshold_equals_batch(self, rng):
        sigma, cap, size = 3, 25, BULK_BLOCK_SIZE
        codes = rng.integers(0, sigma, size=2 * size + 40).astype(np.int64)
        series = SymbolSequence.from_codes(codes, Alphabet.of_size(sigma))
        batch = SpectralMiner(max_period=cap).periodicity_table(series)
        swept = _feed(codes, cap, [size - 1] * 3, sigma)
        bulk = _feed(codes, cap, [size - 1, size, 1], sigma)
        assert bulk.table() == swept.table() == batch

    def test_window_sweeps_bulk_blocks(self, rng, bulk_sizes):
        codes = rng.integers(0, 3, size=3 * self.T).astype(np.int64)
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=5, window=20)
        miner.extend_codes(codes)
        assert bulk_sizes == []
        batch = SpectralMiner(max_period=5).periodicity_table(
            SymbolSequence.from_codes(codes[-20:], Alphabet.of_size(3))
        )
        assert miner.table() == batch


_STREAM_SINKS = {
    "online": lambda: OnlineMiner(Alphabet.of_size(3), max_period=4),
    "window": lambda: SlidingWindowMiner(Alphabet.of_size(3), max_period=4, window=8),
    "monitor": lambda: PeriodicityMonitor(Alphabet.of_size(3), period=2),
}


class TestBlockShape:
    @pytest.mark.parametrize("sink", _STREAM_SINKS)
    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), ()])
    def test_rejects_non_1d_codes(self, sink, shape):
        miner = _STREAM_SINKS[sink]()
        codes = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            miner.extend_codes(codes)


class TestWindowChunked:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 2), min_size=1, max_size=150),
        window=st.integers(5, 30),
        cap=st.integers(1, 12),
        sizes=chunk_sizes,
    )
    def test_any_chunking_equals_per_symbol(self, codes, window, cap, sizes):
        cap = min(cap, window - 1)
        codes = np.array(codes, dtype=np.int64)
        alphabet = Alphabet.of_size(3)
        chunked = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        for chunk in _chunks(codes, sizes):
            chunked.extend_codes(chunk)
        scalar = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        for code in codes:
            scalar.append_code(int(code))
        assert chunked.table() == scalar.table()
        assert chunked.n == scalar.n and chunked.start == scalar.start

    def test_chunk_straddles_evictions(self, rng):
        # Fill the window, then feed a chunk that evicts mid-chunk.
        alphabet = Alphabet.of_size(3)
        window, cap = 20, 8
        head = rng.integers(0, 3, size=window).astype(np.int64)
        tail = rng.integers(0, 3, size=15).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        miner.extend_codes(head)
        miner.extend_codes(tail)  # one chunk, 15 evictions inside it
        recent = np.concatenate([head, tail])[-window:]
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(recent, alphabet)
        )
        assert miner.table() == batch

    def test_chunk_larger_than_window(self, rng):
        # A single chunk several windows long: most of it is both added
        # and evicted within the same ingestion sweep.
        alphabet = Alphabet.of_size(3)
        window, cap = 16, 6
        codes = rng.integers(0, 3, size=100).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        miner.extend_codes(codes)
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(codes[-window:], alphabet)
        )
        assert miner.table() == batch

    def test_confidence_reads_live_counts(self, rng):
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=10, window=40)
        miner.extend_codes(rng.integers(0, 3, size=300).astype(np.int64))
        snapshot = miner.table()
        for period in (1, 3, 7, 10):
            assert miner.confidence(period) == pytest.approx(
                snapshot.confidence(period)
            )


class TestWindowEvictionCache:
    """The window retracts evictions from cached arrival keys."""

    def test_cache_is_exactly_the_window_pairs(self, rng):
        alphabet = Alphabet.of_size(3)
        window, cap = 30, 7
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        store = miner._store
        codes = rng.integers(0, 3, size=25 * window).astype(np.int64)
        position = 0
        while position < codes.size:  # >= 20 windows of random chunks
            chunk = codes[position : position + int(rng.integers(1, 2 * window))]
            position += chunk.size
            miner.extend_codes(chunk)
            cached = [first + earlier for first, earlier, _ in store.retained]
            keys = [k for _, _, k in store.retained]
            # No leak: every cached pair still has its earlier element in
            # the window.
            assert all(bool(np.all(e >= miner.start)) for e in cached)
            # Bounded: no more than the window's pairs plus one chunk's.
            total = sum(k.size for k in keys)
            assert total <= store.counts.sum() + chunk.size * cap
            # The cache holds exactly the pairs the counters count.
            flat = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
            assert np.array_equal(
                np.bincount(flat, minlength=store.counts.size), store.counts
            )
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(codes[-window:], alphabet)
        )
        assert miner.table() == batch

    def test_one_symbol_appends_evict_slices_of_a_bounded_cache(self, rng):
        alphabet = Alphabet.of_size(3)
        window, cap = 40, 6
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        store = miner._store
        codes = rng.integers(0, 3, size=10 * window).astype(np.int64)
        for code in codes.tolist():
            miner.append_code(code)
            held = sum(entry.keys.size for entry in store._retained)
            held += sum(keys.size for _, keys in store._pending)
            # The window's pairs, plus the evicted prefixes of the (at
            # most two) merged entries the window start straddles, each
            # of at most cap arrivals with cap pairs apiece.
            assert held <= store.counts.sum() + 2 * cap * cap
        sealed = [entry.ordered for entry in store._retained][:-1]  # -1: open
        assert sealed and all(sealed)
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(codes[-window:], alphabet)
        )
        assert miner.table() == batch

    def test_merged_entries_are_sorted_once_and_sliced(self):
        store = DenseCountStore(2, 3)
        # Three one-arrival chunks at 10, 11, 12 merge into one entry.
        chunks = ((10, [-1], [0]), (11, [-3, -1], [1, 2]), (12, [-2], [3]))
        for first, earlier, keys in chunks:
            store.retain(
                first, np.array(earlier, dtype=np.int32), np.array(keys, dtype=np.int32)
            )
        # Absolute earlier indices: 9; 8, 10; 10.
        assert [first for first, _, _ in store.retained] == [10]
        assert store.eviction_keys(9).tolist() == [1]
        assert store.eviction_keys(10).tolist() == [0]
        assert store.eviction_keys(11).tolist() == [2, 3]  # stable: arrival order
        assert store.retained == ()

    def test_eviction_keys_only_read_the_cache(self):
        store = DenseCountStore(2, 3)
        earlier = np.array([-2, -1, 0, 3, 1], dtype=np.int32)
        keys = np.array([0, 1, 2, 3, 4], dtype=np.int32)
        store.retain(10, earlier, keys)
        store.retain(
            16, np.array([-3, 0], dtype=np.int32), np.array([5, 6], dtype=np.int32)
        )
        # Absolute earlier indices: 8, 9, 10, 13, 11 and 13, 16.
        assert sorted(store.eviction_keys(11).tolist()) == [0, 1, 2]
        assert sorted(store.eviction_keys(11).tolist()) == []
        assert sorted(store.eviction_keys(14).tolist()) == [3, 4, 5]
        assert [first for first, _, _ in store.retained] == [16]
        assert store.eviction_keys(100).tolist() == [6]
        assert store.retained == ()


def _arrival_pairs(history, chunk, first_index, sigma, cap):
    """``(key, earlier offset)`` of every arrival pair, in Python ints."""
    offsets = dense_offsets(sigma, cap).tolist()
    codes = [int(c) for c in history] + [int(c) for c in chunk]
    base = first_index - len(history)  # absolute index of codes[0]
    pairs = []
    for row in range(len(chunk)):
        j = first_index + row
        for p in range(1, cap + 1):
            if j - p >= base and codes[j - p - base] == codes[j - base]:
                key = offsets[p] + int(chunk[row]) * p + (j - p) % p
                pairs.append((key, row - p))
    return sorted(pairs)


class TestArrivalKernel:
    """``arrival_keys``: int32 arithmetic, exact at any stream index."""

    @pytest.mark.parametrize("first_index", [0, 5, 2**31 - 3, 2**31 + 7, 2**40 + 11])
    def test_matches_the_int64_formula(self, rng, first_index):
        sigma, cap = 3, 9
        store = DenseCountStore(sigma, cap)
        history = rng.integers(0, sigma, size=min(cap, first_index))
        chunk = rng.integers(0, sigma, size=40)
        keys, earlier = store.arrival_keys(history, chunk, first_index)
        assert keys.dtype == earlier.dtype == np.int32
        got = sorted(zip(keys.tolist(), earlier.tolist()))
        assert got == _arrival_pairs(history, chunk, first_index, sigma, cap)

    def test_index_dtype_widens_past_int32(self):
        assert index_dtype(2**31) is np.int32
        assert index_dtype(2**31 + 1) is np.int64

    def test_int64_fallback_gives_the_same_keys(self, rng, monkeypatch):
        sigma, cap, first_index = 4, 11, 2**31 + 3
        history = rng.integers(0, sigma, size=cap)
        chunk = rng.integers(0, sigma, size=60)
        narrow = DenseCountStore(sigma, cap).arrival_keys(history, chunk, first_index)
        monkeypatch.setattr(counts, "_INT32_BOUND", 0)
        wide = DenseCountStore(sigma, cap).arrival_keys(history, chunk, first_index)
        assert wide[0].dtype == wide[1].dtype == np.int64
        assert np.array_equal(wide[0], narrow[0])
        assert np.array_equal(wide[1], narrow[1])

    def test_window_on_the_int64_path_equals_batch(self, rng, monkeypatch):
        monkeypatch.setattr(counts, "_INT32_BOUND", 0)
        alphabet = Alphabet.of_size(3)
        codes = rng.integers(0, 3, size=300).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=9, window=50)
        for chunk in _chunks(codes, [37] * 9):
            miner.extend_codes(chunk)
        batch = SpectralMiner(max_period=9).periodicity_table(
            SymbolSequence.from_codes(codes[-50:], alphabet)
        )
        assert miner.table() == batch


def _confidence_oracle(block: np.ndarray, n: int, shift: int) -> float:
    """Definition 1, position by position: ``max(best[l] / pairs(n, p, l))``."""
    period = block.shape[1]
    ratios = [
        int(block[:, (position + shift) % period].max())
        / projection_pairs(n, period, position)
        for position in range(period)
        if projection_pairs(n, period, position) > 0
    ]
    return max(ratios, default=0.0)


@st.composite
def confidence_reads(draw):
    """``(block, n, shift)`` with ``n`` at the edges of ``n = q * p + s``."""
    sigma = draw(st.integers(1, 5), label="sigma")
    period = draw(st.integers(1, 12), label="period")
    q = draw(st.integers(0, 6), label="q")
    n = draw(
        st.sampled_from(
            [0, 1, period - 1, period, q * period, q * period + period - 1]
        )
        | st.integers(0, 8 * period),
        label="n",
    )
    shift = draw(st.integers(0, 5 * period), label="shift")
    kind = draw(st.sampled_from(["random", "zeros", "rest-only"]), label="kind")
    block = np.zeros((sigma, period), dtype=np.int64)
    if kind == "random":
        cells = st.integers(0, draw(st.sampled_from([3, 100, 2**40])))
        values = draw(st.lists(cells, min_size=block.size, max_size=block.size))
        block[:] = np.array(values, dtype=np.int64).reshape(sigma, period)
    elif kind == "rest-only":
        # One non-zero cell at a position l >= n % p: the q - 1 group.
        s = n % period
        position = draw(st.integers(s, period - 1), label="position")
        code = draw(st.integers(0, sigma - 1), label="code")
        block[code, (position + shift) % period] = draw(st.integers(1, 50))
    return block, n, shift


class TestBlockConfidence:
    """The closed-form denominators equal Definition 1's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(read=confidence_reads())
    def test_equals_the_definition(self, read):
        block, n, shift = read
        assert block_confidence(block, n, shift) == _confidence_oracle(block, n, shift)

    def test_rest_group_alone_is_read(self):
        # n = 2 * 4 + 1: position 0 has 2 pairs, positions 1..3 have 1.
        block = np.zeros((2, 4), dtype=np.int64)
        block[1, (3 + 6) % 4] = 1  # position 3 at shift 6
        assert block_confidence(block, 9, shift=6) == 1.0
        assert block_confidence(block, 5, shift=6) == 0.0  # q - 1 == 0
        assert block_confidence(np.zeros((3, 4), dtype=np.int64), 9, 2) == 0.0


class _RecordingMonitor(PeriodicityMonitor):
    """A monitor that records the confidence each of its checks reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.readings = []

    @property
    def confidence(self):
        value = super().confidence
        self.readings.append(value)
        return value


class TestMonitorChunked:
    def _event_stream(self, rng):
        periodic = np.tile(np.array([0, 1, 2, 3]), 60)
        noise = rng.integers(0, 4, size=300)
        recovery = np.tile(np.array([0, 1, 2, 3]), 40)
        return np.concatenate([periodic, noise, recovery]).astype(np.int64)

    def _monitor(self):
        return PeriodicityMonitor(
            Alphabet.of_size(4), period=4, window=40, floor=0.6, patience=2
        )

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 97), min_size=1, max_size=30))
    def test_same_events_under_any_chunking(self, sizes):
        rng = np.random.default_rng(2004)
        codes = self._event_stream(rng)
        per_symbol = self._monitor()
        expected = [per_symbol.append_code(int(c)) for c in codes]
        expected = [e for e in expected if e is not None]
        chunked = self._monitor()
        fired = []
        for chunk in _chunks(codes, sizes):
            fired.extend(chunked.extend_codes(chunk))
        assert fired == expected
        assert chunked.events == per_symbol.events
        assert chunked.alarmed == per_symbol.alarmed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_window_miner_at_every_check(self, data):
        sigma = data.draw(st.integers(1, 8), label="sigma")
        period = data.draw(st.integers(1, 10), label="period")
        window = data.draw(st.integers(period + 1, period + 40), label="window")
        knobs = {
            "period": period,
            "window": window,
            "check_every": data.draw(st.integers(1, 25), label="check_every"),
            "floor": data.draw(st.floats(0.05, 1.0), label="floor"),
            "patience": data.draw(st.integers(1, 4), label="patience"),
        }
        # At least one full window, so checks run and symbols are evicted.
        symbols = st.lists(
            st.integers(0, sigma - 1), min_size=window, max_size=6 * window
        )
        codes = np.array(data.draw(symbols, label="codes"), dtype=np.int64)
        # Chunks up to twice the window: some evict a whole window at once.
        sizes = data.draw(
            st.lists(st.integers(1, 2 * window + 5), min_size=1, max_size=30),
            label="sizes",
        )
        alphabet = Alphabet.of_size(sigma)

        def window_miner():
            return SlidingWindowMiner(alphabet, max_period=period, window=window)

        per_symbol, reference = PeriodicityMonitor(alphabet, **knobs), window_miner()
        expected = []
        for n, code in enumerate(codes.tolist(), start=1):
            event = per_symbol.append_code(code)
            reference.append_code(code)
            if n % knobs["check_every"] == 0 and n >= window:  # a check ran
                assert per_symbol.confidence == reference.confidence(period)
            if event is not None:
                expected.append(event)
        chunked, reference = PeriodicityMonitor(alphabet, **knobs), window_miner()
        fired = []
        for chunk in _chunks(codes, sizes):
            fired.extend(chunked.extend_codes(chunk))
            reference.extend_codes(chunk)
            assert chunked.confidence == reference.confidence(period)
        assert fired == expected
        assert chunked.events == per_symbol.events
        assert chunked.alarmed == per_symbol.alarmed

    @pytest.mark.parametrize(
        "period, window, check_every, sizes",
        [
            (5, 12, 10, [400]),  # check_every > window - period, one call
            (5, 12, 10, [3, 29, 13, 40, 1, 64, 50]),
            (7, 9, 5, [61, 2, 30, 107]),  # window - period == 2
            (3, 20, 50, [17, 90, 93, 400]),  # check_every > window
            (4, 6, 4, [1] * 7 + [25, 150]),
        ],
    )
    def test_sub_chunks_capped_below_the_window(
        self, period, window, check_every, sizes
    ):
        # A sub-chunk longer than window - period would evict pairs its
        # own compare found; the monitor caps sub-chunks so it never does.
        rng = np.random.default_rng(period * 1000 + window)
        stretch = 3 * window + check_every
        rhythm = np.tile(rng.integers(0, 4, size=period), stretch // period + 1)
        codes = np.concatenate([rhythm, np.zeros(stretch, dtype=np.int64), rhythm])
        for i in range(rhythm.size, rhythm.size + stretch):
            # The broken rhythm: every symbol differs from the one a period back.
            codes[i] = (codes[i - period] + rng.integers(1, 4)) % 4
        alphabet = Alphabet.of_size(4)
        knobs = dict(
            period=period, window=window, check_every=check_every, floor=0.7
        )
        per_symbol = _RecordingMonitor(alphabet, patience=1, **knobs)
        reference = SlidingWindowMiner(alphabet, max_period=period, window=window)
        expected, checks = [], []
        for n, code in enumerate(codes.tolist(), start=1):
            event = per_symbol.append_code(code)
            reference.append_code(code)
            if n % check_every == 0 and n >= window:
                checks.append(reference.confidence(period))
            if event is not None:
                expected.append(event)
        assert per_symbol.readings == checks
        chunked = _RecordingMonitor(alphabet, patience=1, **knobs)
        fired = []
        for chunk in _chunks(codes, sizes):
            fired.extend(chunked.extend_codes(chunk))
        assert chunked.readings == checks
        assert fired == expected and expected  # an alarm fired on the noise
        assert chunked.events == per_symbol.events
        assert chunked.alarmed == per_symbol.alarmed

    def test_one_big_chunk_fires_identically(self, rng):
        codes = self._event_stream(rng)
        per_symbol = self._monitor()
        for code in codes:
            per_symbol.append_code(int(code))
        chunked = self._monitor()
        chunked.extend_codes(codes)
        assert chunked.events == per_symbol.events


class TestReaderFeedInto:
    def test_feeds_online_miner(self, rng):
        codes = rng.integers(0, 4, size=250).astype(np.int64)
        alphabet = Alphabet.of_size(4)
        series = SymbolSequence.from_codes(codes, alphabet)
        reader = ChunkedReader(series, block_size=37)
        miner = OnlineMiner(alphabet, max_period=20)
        fed = reader.feed_into(miner)
        assert fed == 250
        direct = OnlineMiner(alphabet, max_period=20)
        direct.extend_codes(codes)
        assert miner.table() == direct.table()

    def test_feeds_monitor(self, rng):
        codes = np.tile(np.array([0, 1, 2, 3]), 50).astype(np.int64)
        alphabet = Alphabet.of_size(4)
        series = SymbolSequence.from_codes(codes, alphabet)
        monitor = PeriodicityMonitor(alphabet, period=4, window=40)
        ChunkedReader(series, block_size=64).feed_into(monitor)
        assert monitor.confidence == pytest.approx(1.0)


class TestDenseCountStore:
    def test_layout_helpers_validate(self):
        with pytest.raises(ValueError):
            dense_offsets(0, 5)
        with pytest.raises(ValueError):
            dense_size(3, 0)

    def test_layout_shape(self):
        offsets = dense_offsets(3, 4)
        assert offsets.tolist() == [0, 0, 3, 9, 18]
        assert dense_size(3, 4) == 30

    def test_from_dense_rejects_wrong_shape(self):
        alphabet = Alphabet.of_size(3)
        with pytest.raises(ValueError):
            PeriodicityTable.from_dense(
                10, alphabet, np.zeros(7, dtype=np.int64), max_period=4
            )

    def test_from_dense_round_trip(self, rng):
        sigma, cap, n = 4, 9, 120
        alphabet = Alphabet.of_size(sigma)
        codes = rng.integers(0, sigma, size=n).astype(np.int64)
        miner = OnlineMiner(alphabet, max_period=cap)
        miner.extend_codes(codes)
        table = miner.table()
        # Rebuild the dense array from the table and convert back.
        offsets = dense_offsets(sigma, cap)
        dense = np.zeros(dense_size(sigma, cap), dtype=np.int64)
        for p in table.periods:
            for (code, position), value in table.counts_for(p).items():
                dense[int(offsets[p]) + code * p + position] = value
        assert PeriodicityTable.from_dense(n, alphabet, dense, cap) == table

    def test_eviction_below_zero_raises(self):
        store = DenseCountStore(2, 3)
        keys = np.array([0], dtype=np.int64)
        with pytest.raises(AssertionError):
            store.subtract(keys)


@st.composite
def count_updates(draw):
    """A store, its live counts, and one ``(added, removed)`` update.

    Stores run from a few cells to past ``counts._SMALL_STORE``, and each
    side's key count is drawn on both sides of the scatter crossover
    (``counts._ADD_AT_MAX_SHARE`` of the cells), empty included.
    ``removed`` only takes pairs the store holds or ``added`` brings.
    """
    sigma = draw(st.integers(1, 8), label="sigma")
    cap = draw(st.integers(1, 45), label="max_period")
    store = DenseCountStore(sigma, cap)
    size = store.counts.size
    share = counts._ADD_AT_MAX_SHARE
    sizes = st.sampled_from(
        [0, 1, 2, size // 40, int(share * size) - 1, int(share * size) + 1, 2 * size]
    ).map(lambda n: max(n, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    store.counts[:] = rng.integers(0, 3, size=size)
    added = rng.integers(0, size, size=draw(sizes, label="added")).astype(np.int32)
    held = np.repeat(
        np.arange(size), store.counts + np.bincount(added, minlength=size)
    )
    wanted = min(draw(sizes, label="removed"), held.size)
    removed = rng.permutation(held)[:wanted].astype(np.int32)
    return store, added, removed


class TestCountUpdate:
    """``DenseCountStore.update``: one net scatter, checked for negativity."""

    @settings(max_examples=200, deadline=None)
    @given(case=count_updates())
    def test_update_equals_add_at_reference(self, case):
        store, added, removed = case
        expected = store.counts.copy()
        np.add.at(expected, added, 1)
        np.add.at(expected, removed, -1)
        store.update(added, removed)
        assert np.array_equal(store.counts, expected)

    @pytest.mark.parametrize(
        "sigma, cap, removed",
        [
            (2, 3, 1),  # small store: bincount, store-wide min
            (8, 40, 1),  # np.add.at, gather over the removed cells
            (8, 40, 1_000),  # np.add.at, store-wide min
            (8, 40, 6_000),  # bincount on a large store, store-wide min
        ],
    )
    def test_removing_a_key_never_added_raises(self, rng, sigma, cap, removed):
        store = DenseCountStore(sigma, cap)
        size = store.counts.size
        assert (size > counts._SMALL_STORE) == (cap == 40)
        keys = rng.permutation(size)[:removed].astype(np.int32)
        added = keys[1:]  # every removed key but one was counted
        store.update(added)
        with pytest.raises(AssertionError, match="negative"):
            store.update(added[:0], keys)
        again = DenseCountStore(sigma, cap)
        with pytest.raises(AssertionError, match="negative"):
            again.update(added, keys)  # the same, as one net update
