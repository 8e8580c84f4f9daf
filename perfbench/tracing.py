"""Spans around each layer's public calls, for the traced benchmark run.

The program has no tracing of its own yet, so the spans are recorded
here.  The batch paths are replayed as the sequence of public layer
calls that ``mine()``, ``PeriodicityPipeline.run`` and ``repro mine``
make, each call inside a span.  Calls made inside a public loop (the
count-store kernels, the monitor's confidence reads, the per-period
threshold queries) are reached by wrapping the public method or function
where it is looked up, for the traced run only; :func:`patched` restores
the originals afterwards.

A span is ``[name, start, end, parent, count]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``count`` is the number of pairs a
scatter update applied.  A layer's self time is its span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict
from collections.abc import Callable, Iterator
from time import perf_counter

from repro import ConvolutionMiner, PeriodicityPipeline, PeriodicityTable, SpectralMiner
from repro.analysis.anomalies import find_anomalies
from repro.analysis.harmonics import base_periods
from repro.analysis.significance import significant_periods
from repro.core import candidates, convolution_miner
from repro.core.alphabet import Alphabet
from repro.core.candidates import mine_patterns, single_symbol_patterns
from repro.core.results import MiningResult
from repro.core.sequence import SymbolSequence
from repro.pipeline import PipelineReport
from repro.streaming import (
    ChunkedReader,
    DenseCountStore,
    OnlineMiner,
    SlidingWindowMiner,
)

from workloads import CLI_TOP, PSI, WORKERS, Inputs, Workload

ROOT_PREFIX = "path:"

#: the pipeline's own defaults, read from its signature so the replay
#: follows them if they change.
_PIPELINE = {
    name: p.default
    for name, p in inspect.signature(PeriodicityPipeline).parameters.items()
}

_END = object()


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = [name, perf_counter(), 0.0, self._stack[-1], 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, fn: Callable, name: str, counted: bool = False) -> Callable:
        """``fn`` inside a span; ``counted`` records ``args[1].size``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1],
                      args[1].size if counted else 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` is a span."""
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                with span(name):
                    item = next(items, _END)
                if item is _END:
                    return
                yield item

        return traced


#: (owner, attribute, span name, kind) of every wrapped call.
PATCHES: list[tuple[object, str, str, str]] = [
    (SpectralMiner, "match_counts", "spectral_fft", "call"),
    # ConvolutionMiner._packed_words looks these up in its module.
    (convolution_miner, "binary_vector_bits", "pack", "call"),
    (convolution_miner, "pack_positions", "pack", "call"),
    (PeriodicityTable, "periodicities", "periodicities", "call"),
    # mine_patterns looks segment_match_matrix up in its module.
    (candidates, "segment_match_matrix", "segment_matrix", "call"),
    (OnlineMiner, "extend_codes", "ingest", "call"),
    (SlidingWindowMiner, "extend_codes", "ingest", "call"),
    (DenseCountStore, "arrival_keys", "arrival_keys", "call"),
    (DenseCountStore, "add", "scatter_add", "counted"),
    (DenseCountStore, "eviction_keys", "eviction_keys", "call"),
    (DenseCountStore, "subtract", "scatter_sub", "counted"),
    (OnlineMiner, "table", "snapshot", "call"),
    (SlidingWindowMiner, "table", "snapshot", "call"),
    (SlidingWindowMiner, "confidence", "confidence", "call"),
    (ChunkedReader, "__iter__", "read", "iter"),
]


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap every target in a span; restore the originals on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, name, kind in PATCHES:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            if kind == "iter":
                wrapper = tracer.wrap_iter(original, name)
            else:
                wrapper = tracer.wrap(original, name, counted=kind == "counted")
            setattr(owner, attribute, wrapper)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# -- batch paths replayed as layer calls ------------------------------------------


def _mine_tail(
    tracer: Tracer,
    series: SymbolSequence,
    table: PeriodicityTable,
    psi: float,
    periods: list[int] | None,
    max_arity: int | None,
) -> MiningResult:
    """What ``mine()`` does once it has the evidence table."""
    periodicities = tuple(table.periodicities(psi))
    with tracer.span("single_patterns"):
        singles = tuple(single_symbol_patterns(table, psi))
    with tracer.span("pattern_mine"):
        patterns = tuple(
            mine_patterns(series, table, psi, periods=periods, max_arity=max_arity)
        )
    return MiningResult(psi=psi, table=table, periodicities=periodicities,
                        single_patterns=singles, patterns=patterns)


def _spectral_mine(
    tracer: Tracer, w: Workload, series: SymbolSequence,
    periods: list[int] | None, max_arity: int | None,
) -> MiningResult:
    with tracer.span("residue"):
        miner = SpectralMiner(psi=PSI, max_period=w.max_period)
        table = miner.periodicity_table(series)
    return _mine_tail(tracer, series, table, PSI, periods, max_arity)


def traced_mine(tracer: Tracer, w: Workload, inp: Inputs) -> MiningResult:
    return _spectral_mine(tracer, w, inp.series, w.pattern_periods, w.max_arity)


def traced_exact_mine(
    tracer: Tracer, w: Workload, inp: Inputs
) -> tuple[MiningResult, int]:
    """The exact path; also returns the number of fault events."""
    series = inp.series
    miner = ConvolutionMiner(engine="parallel", max_period=w.max_period,
                             workers=WORKERS)
    with tracer.span("count_kernel"):
        tables = miner.f2_tables(series)
    with tracer.span("table_build"):
        table = PeriodicityTable(series.length, series.alphabet, tables)
    result = _mine_tail(tracer, series, table, PSI, w.pattern_periods,
                        w.max_arity)
    return result, len(miner.fault_events)


def traced_pipeline(tracer: Tracer, w: Workload, inp: Inputs) -> PipelineReport:
    """``PeriodicityPipeline(psi, max_period).run`` with its defaults."""
    series = inp.series
    scouting = _spectral_mine(tracer, w, series, [], None)
    with tracer.span("harmonics"):
        families = tuple(base_periods(scouting.table, PSI))
    bases = [f.base for f in families]
    result = _mine_tail(tracer, series, scouting.table, PSI, bases[:5],
                        _PIPELINE["max_arity"])
    with tracer.span("significance"):
        significant = tuple(significant_periods(
            series, result.table, PSI, alpha=_PIPELINE["significance_alpha"]
        ))
    anomalies: tuple = ()
    if families:
        base = families[0].base
        patterns = [p for p in result.patterns_for(base) if p.support >= PSI]
        if patterns:
            with tracer.span("anomalies"):
                anomalies = tuple(find_anomalies(
                    series, patterns, threshold=_PIPELINE["anomaly_threshold"]
                ))
    return PipelineReport(series=series, result=result, families=families,
                          significant=significant, anomalies=anomalies)


def traced_cli_mine(tracer: Tracer, w: Workload, inp: Inputs) -> str:
    """``repro mine``: load the file, mine, render; returns the rendering."""
    text = inp.path.read_text(encoding="ascii").strip()
    with tracer.span("load"):
        series = SymbolSequence.from_string(text, Alphabet(inp.symbols))
    result = _spectral_mine(tracer, w, series, w.pattern_periods, w.max_arity)
    with tracer.span("render"):
        return result.render(limit=CLI_TOP)


# -- self times -------------------------------------------------------------------


def summarize(spans: list[list]) -> tuple[dict, dict, dict]:
    """Self times and counts of the spans inside the path roots.

    Returns ``(self_s, counts, paths)``: ``self_s[layer]`` and
    ``counts[layer]`` (pairs for scatter updates, calls otherwise) sum
    over every root; ``paths[path]`` holds the root's traced seconds,
    its unattributed self time, and its layers' self times.  Spans
    outside a root ran outside any timed region and are ignored.
    """
    child_time = [0.0] * len(spans)
    root = [-1] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[index] = root[parent]
        elif name.startswith(ROOT_PREFIX):
            root[index] = index
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    paths: dict[str, dict] = {}
    for index, (name, start, end, parent, count) in enumerate(spans):
        if root[index] < 0:
            continue
        own = end - start - child_time[index]
        if parent < 0:
            paths[name[len(ROOT_PREFIX):]] = {
                "traced_s": end - start, "unattributed_s": own, "layers": {},
            }
            continue
        layers = paths[spans[root[index]][0][len(ROOT_PREFIX):]]["layers"]
        layers[name] = layers.get(name, 0.0) + own
        self_s[name] += own
        counts[name] += count if name.startswith("scatter") else 1
    return dict(self_s), dict(counts), paths
