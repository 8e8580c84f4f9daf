"""The benchmark's workloads, its eight user-facing paths, and their checks.

A workload is one symbol series made from the seed by an in-repo
generator, plus the knobs every path runs with.  Each workload runs all
eight paths -- four batch (``mine()``, the exact parallel engine, the
pipeline, ``repro mine``) and four streaming (``OnlineMiner``,
``SlidingWindowMiner``, ``PeriodicityMonitor``, ``repro stream``) --
because every end-to-end metric is reported on every workload.  The
series decides which layers do the work: dense evidence on the uniform
series, sparse evidence above the threshold on the planted one.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import PeriodicityPipeline, PeriodicityTable, SpectralMiner, mine
from repro.cli import main as cli_main
from repro.core.sequence import SymbolSequence
from repro.data.noise import apply_noise
from repro.data.synthetic import generate_pattern, generate_periodic, generate_random
from repro.streaming import (
    OnlineMiner,
    PeriodicityMonitor,
    SlidingWindowMiner,
    write_symbol_file,
)

BATCH_PATHS = ("mine", "exact_mine", "pipeline", "cli_mine")
STREAM_PATHS = ("stream", "window", "monitor", "cli_stream")
PATHS = BATCH_PATHS + STREAM_PATHS

#: patterns ``repro mine`` prints; the check compares them with ``render``.
CLI_TOP = 20
#: exact-engine workers: the pool never asks for more CPUs than exist.
WORKERS = min(2, os.cpu_count() or 1)
#: support threshold of every path on every workload.
PSI = 0.6
#: SlidingWindowMiner and repro stream window on every workload.
WINDOW = 8192


@dataclass(frozen=True)
class Workload:
    """One input series and the knobs all eight paths run with."""

    name: str
    generate: Callable[[np.random.Generator], SymbolSequence]
    max_period: int  # batch and streaming period cap
    periods: tuple[int, ...] | None  # pattern periods for mine() and repro mine
    max_arity: int | None
    monitor_period: int

    @property
    def pattern_periods(self) -> list[int] | None:
        return None if self.periods is None else list(self.periods)

    @property
    def mine_kwargs(self) -> dict:
        return {"max_period": self.max_period, "periods": self.pattern_periods,
                "max_arity": self.max_arity}


def _planted(rng: np.random.Generator) -> SymbolSequence:
    # Redraw the base pattern until no symbol repeats all along a proper
    # divisor of 24.  Otherwise the seed decides whether the pipeline's
    # base period is 24 or a divisor, and with it how much work every
    # later stage does.
    while True:
        pattern = generate_pattern(24, 8, rng=rng)
        if all(np.unique(pattern[l::d]).size > 1
               for d in (1, 2, 3, 4, 6, 8, 12) for l in range(d)):
            break
    clean = generate_periodic(150_000, 24, 8, rng=rng, pattern=pattern)
    return apply_noise(clean, 0.15, "R", rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-batch",
            lambda rng: generate_random(100_000, 4, rng=rng),
            max_period=300, periods=None, max_arity=None, monitor_period=60,
        ),
        Workload(
            "planted-batch", _planted,
            max_period=200, periods=(24,), max_arity=4, monitor_period=24,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one workload's paths read: the series and its symbol file."""

    series: SymbolSequence
    path: Path

    @property
    def symbols(self) -> str:
        return "".join(map(str, self.series.alphabet.symbols))


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate the series from ``seed`` and write it for the CLI paths."""
    series = workload.generate(np.random.default_rng(seed))
    path = write_symbol_file(series, out_dir / f"{workload.name}-{seed}.txt")
    return Inputs(series, path)


# -- the eight paths -----------------------------------------------------------
#
# Each returns (seconds, output).  The caller builds nothing: every path
# makes its own fresh miner, and the clock covers exactly the work the
# metric names.


Timer = Callable[[Callable[[], object]], tuple[float, object]]


def timed(call: Callable[[], object]) -> tuple[float, object]:
    """Seconds spent in ``call`` and its result."""
    start = perf_counter()
    output = call()
    return perf_counter() - start, output


def _cli(argv: list[str], timer: Timer) -> tuple[float, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        elapsed, code = timer(lambda: cli_main(argv))
    if code != 0:
        raise RuntimeError(f"repro {argv[0]} exited with {code}")
    return elapsed, captured.getvalue()


def cli_mine_argv(w: Workload, inp: Inputs) -> list[str]:
    argv = ["mine", str(inp.path), "--psi", str(PSI),
            "--max-period", str(w.max_period), "--alphabet", inp.symbols,
            "--top", str(CLI_TOP)]
    if w.periods is not None:
        argv += ["--periods", ",".join(map(str, w.periods))]
    if w.max_arity is not None:
        argv += ["--max-arity", str(w.max_arity)]
    return argv


def cli_stream_argv(w: Workload, inp: Inputs) -> list[str]:
    # --alphabet makes repro stream read the file block by block.
    return ["stream", str(inp.path), "--psi", str(PSI),
            "--max-period", str(w.max_period), "--window", str(WINDOW),
            "--alphabet", inp.symbols, "--top", str(CLI_TOP)]


def run_path(
    name: str, w: Workload, inp: Inputs, timer: Timer = timed
) -> tuple[float, object]:
    """Run one path once; returns the timed seconds and its output.

    ``timer`` wraps exactly the timed region (the traced run passes one
    that also opens the path's root span).
    """
    series = inp.series
    if name == "mine":
        return timer(lambda: mine(series, PSI, **w.mine_kwargs))
    if name == "exact_mine":
        return timer(lambda: mine(
            series, PSI, algorithm="convolution", engine="parallel",
            workers=WORKERS, **w.mine_kwargs,
        ))
    if name == "pipeline":
        pipeline = PeriodicityPipeline(psi=PSI, max_period=w.max_period)
        return timer(lambda: pipeline.run(series))
    if name == "cli_mine":
        return _cli(cli_mine_argv(w, inp), timer)
    if name == "stream":
        online = OnlineMiner(series.alphabet, max_period=w.max_period)

        def ingest_and_snapshot() -> PeriodicityTable:
            online.extend_codes(series.codes)
            return online.table()

        return timer(ingest_and_snapshot)
    if name == "window":
        sliding = SlidingWindowMiner(
            series.alphabet, max_period=w.max_period, window=WINDOW
        )
        seconds, _ = timer(lambda: sliding.extend_codes(series.codes))
        return seconds, sliding.table()
    if name == "monitor":
        monitor = PeriodicityMonitor(series.alphabet, period=w.monitor_period)
        codes = series.codes
        step = w.monitor_period  # the monitor's default check_every

        def feed() -> None:
            for start in range(0, codes.size, step):
                monitor.extend_codes(codes[start : start + step])

        seconds, _ = timer(feed)
        return seconds, (monitor.events, monitor.confidence)
    if name == "cli_stream":
        return _cli(cli_stream_argv(w, inp), timer)
    raise ValueError(f"unknown path {name!r}")


# -- reference checks ------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """Outputs the paths must reproduce, computed without the paths."""

    full: PeriodicityTable  # spectral, unpruned, over the whole series
    window: PeriodicityTable  # spectral, unpruned, over the window suffix
    monitor_confidence: float


def make_reference(w: Workload, inp: Inputs) -> Reference:
    series = inp.series
    full = SpectralMiner(psi=None, max_period=w.max_period).periodicity_table(series)
    window = SpectralMiner(psi=None, max_period=w.max_period).periodicity_table(
        series[-WINDOW :]
    )
    watched = series[-8 * w.monitor_period :]  # the monitor's default window
    monitor = SpectralMiner(psi=None, max_period=w.monitor_period)
    confidence = monitor.periodicity_table(watched).confidence(w.monitor_period)
    return Reference(full, window, confidence)


_HIT = re.compile(
    r"period\s+(\d+)\s+pos\s+(\d+)\s+symbol\s+'(.+?)'\s+support\s+([\d.]+)"
)
_COUNT = re.compile(r"periodicities at psi=[\d.]+: (\d+)")


def check_first_outputs(
    w: Workload, inp: Inputs, ref: Reference, outputs: dict[str, object]
) -> list[str]:
    """Problems with the warm-up outputs, judged against the reference.

    Later (timed) outputs are compared with these warm-up outputs, so
    every output of every path is checked.
    """
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    spectral, exact, report = outputs["mine"], outputs["exact_mine"], outputs["pipeline"]
    expect(exact.table == ref.full, "exact table != unpruned spectral table")
    expect(spectral.periodicities == exact.periodicities,
           "pruned spectral periodicities != exact periodicities")
    expect(spectral.patterns == exact.patterns,
           "pruned spectral patterns != exact patterns")
    expect(report.result.table == spectral.table,
           "pipeline table != mine() table")
    expect(report.result.periodicities == exact.periodicities,
           "pipeline periodicities != exact periodicities")
    expect(outputs["cli_mine"].rstrip().endswith(spectral.render(limit=CLI_TOP)),
           "repro mine output != mine().render()")
    expect(outputs["stream"] == ref.full, "OnlineMiner table != batch table")
    expect(outputs["window"] == ref.window,
           "SlidingWindowMiner table != batch table of the window")
    _, confidence = outputs["monitor"]
    expect(math.isclose(confidence, ref.monitor_confidence, rel_tol=1e-12),
           "monitor confidence != batch confidence of its window")
    expect(_cli_stream_hits(outputs["cli_stream"]) == _expected_hits(w, inp, ref),
           "repro stream periodicities != batch periodicities of the window")
    return problems


def _cli_stream_hits(text: str) -> tuple[int, list[tuple]]:
    count = _COUNT.search(text)
    hits = [
        (int(p), int(l), s, sup) for p, l, s, sup in _HIT.findall(text)
    ]
    return (int(count.group(1)) if count else -1), hits


def _expected_hits(w: Workload, inp: Inputs, ref: Reference) -> tuple[int, list[tuple]]:
    hits = ref.window.periodicities(PSI)
    ranked = sorted(hits, key=lambda h: -h.support)[:CLI_TOP]
    alphabet = inp.series.alphabet
    return len(hits), [
        (h.period, h.position, str(alphabet.symbol(h.symbol_code)), f"{h.support:.3f}")
        for h in ranked
    ]
