"""Regression benchmark of the miner: end-to-end metrics or a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload planted-batch --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it times the eight user-facing paths and prints the
end-to-end metrics; with ``--trace 1`` it replays the paths with spans
around each layer's public calls and prints the per-layer metrics.
Either way every output is checked against a reference first, and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

Each run sets up (imports, input generation from ``--seed``, the symbol
file, one warm-up call per path), checks the warm-up outputs against
references computed without the paths, then times rounds of all eight
paths in rotating order until ``--seconds`` have passed (at least
``MIN_ROUNDS``), each call on fresh objects after ``gc.collect()``.
Metrics are the medians over the rounds, with every time scaled to a
reference machine speed by the kernel in ``calibration.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

_START = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402  (needs the path set above)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

IMPORT_S = perf_counter() - _START

OUT_DIR = HERE / "out"
MIN_ROUNDS = 3
SETUP_REPEATS = 3
TRACED_ROUNDS = 2

TIME_METRICS = {
    "mine": "mine_s",
    "exact_mine": "exact_mine_s",
    "pipeline": "pipeline_s",
    "cli_mine": "cli_mine_s",
    "cli_stream": "cli_stream_s",
}
RATE_METRICS = {
    "stream": "stream_sym_per_s",
    "window": "window_sym_per_s",
    "monitor": "monitor_sym_per_s",
}

#: spans whose summed self times are the ``layer.<span>_s`` metrics.
LAYER_SPANS = (
    "pack", "count_kernel", "spectral_fft", "residue", "table_build",
    "periodicities", "single_patterns", "segment_matrix", "pattern_mine",
    "harmonics", "significance", "anomalies", "load", "render", "ingest",
    "arrival_keys", "scatter_add", "eviction_keys", "scatter_sub",
    "snapshot", "confidence", "read",
)


class Run:
    """Counts attempted and failed operations, and why they failed."""

    def __init__(self, workload: wl.Workload, inputs: wl.Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernel_s: list[float] = []  # every calibration-kernel time
        self._kernel_before: float | None = None

    def call(
        self, path: str, expected: object = None, check: bool = False,
        calibrate: bool = False,
    ) -> tuple[float | None, object]:
        """Run one path; returns its seconds and output.

        With ``check`` the output must equal ``expected``.  With
        ``calibrate`` the seconds are scaled to reference speed by the
        mean of the calibration kernel's passes right before and right
        after the call (one pass sits between two calibrated calls).
        """
        self.attempted += 1
        gc.collect()
        if calibrate and self._kernel_before is None:
            self._kernel_before = calibration.kernel_seconds()
            self.kernel_s.append(self._kernel_before)
        try:
            seconds, output = wl.run_path(path, self.workload, self.inputs)
        except Exception:
            self.fail(f"{path} raised:\n{traceback.format_exc()}")
            return None, None
        if calibrate:
            after = calibration.kernel_seconds()
            self.kernel_s.append(after)
            seconds = calibration.scaled(seconds, (self._kernel_before + after) / 2)
            self._kernel_before = after
        if check and output != expected:
            self.fail(f"{path} output differs from its first output")
        return seconds, output

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def set_up(workload: wl.Workload, seed: int) -> tuple[Run, dict, float]:
    """Inputs (made ``SETUP_REPEATS`` times) and one warm-up per path.

    Returns the run, the warm-up outputs, and the set-up seconds at
    reference speed: the imports and the median input generation, scaled
    by the first calibration pass, plus the calibrated warm-up calls.
    """
    OUT_DIR.mkdir(exist_ok=True)
    made: list[float] = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        again = wl.make_inputs(workload, seed, OUT_DIR)
        made.append(perf_counter() - start)
        if inputs is not None and again.series != inputs.series:
            raise RuntimeError("the same seed gave different inputs")
        inputs = again
    calibration.kernel_seconds()  # the kernel's first pass is a warm-up too
    run = Run(workload, inputs)
    first: dict[str, object] = {}
    warm_s = 0.0
    for path in wl.PATHS:
        seconds, first[path] = run.call(path, calibrate=True)
        warm_s += seconds or 0.0
    prepared = calibration.scaled(IMPORT_S + statistics.median(made), run.kernel_s[0])
    return run, first, prepared + warm_s


def check_references(run: Run, first: dict) -> None:
    """Compare the warm-up outputs with references built without them."""
    if any(first[path] is None for path in wl.PATHS):
        return  # the failing call is already counted
    reference = wl.make_reference(run.workload, run.inputs)
    for problem in wl.check_first_outputs(run.workload, run.inputs, reference, first):
        run.fail(problem)


def rotated(round_index: int) -> tuple[str, ...]:
    shift = round_index % len(wl.PATHS)
    return wl.PATHS[shift:] + wl.PATHS[:shift]


def timed_rounds(run: Run, first: dict, seconds: float) -> dict[str, list[float]]:
    """Rounds of every path, in rotating order, for ``seconds`` (at least
    ``MIN_ROUNDS``); each output is checked against the first one.
    Stops after the round in which a call fails."""
    times: dict[str, list[float]] = {path: [] for path in wl.PATHS}
    start = perf_counter()
    rounds = 0
    while not run.problems and (rounds < MIN_ROUNDS or perf_counter() - start < seconds):
        for path in rotated(rounds):
            elapsed, _ = run.call(path, first[path], check=True, calibrate=True)
            if elapsed is not None:
                times[path].append(elapsed)
        rounds += 1
    return times


def end_to_end(run: Run, first: dict, seconds: float, setup_s: float) -> dict:
    """The end-to-end metrics, times at reference machine speed.

    ``peak_mem_mb`` is the peak resident set of this process over the
    whole run.  It includes the references and the held warm-up outputs,
    and leaves out the exact engine's worker processes (the traced run
    reports those as ``layer.worker_peak_mem_mb``).
    """
    times = timed_rounds(run, first, seconds)
    if run.problems:
        return {}  # a timed call failed: its times would mislead
    n = run.inputs.series.length
    print(f"calibration kernel: median {statistics.median(run.kernel_s):.4f} s "
          f"over {len(run.kernel_s)} passes (reference {calibration.REFERENCE_S} s)")
    metrics: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    for path, name in TIME_METRICS.items():
        metrics[name] = (statistics.median(times[path]), "s")
    for path, name in RATE_METRICS.items():
        metrics[name] = (n / statistics.median(times[path]), "sym/s")
    metrics["peak_mem_mb"] = (peak_mb(resource.RUSAGE_SELF), "MB")
    return metrics


def peak_mb(who: int) -> float:
    """Peak resident set of this process or of its largest ended child."""
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def traced(run: Run, first: dict, seed: int) -> dict:
    """Per-layer metrics from ``TRACED_ROUNDS`` traced rounds."""
    w, inp = run.workload, run.inputs
    untraced = {}
    for path in wl.PATHS:
        untraced[path], _ = run.call(path, first[path], check=True)
    rounds = [_traced_round(run, first) for _ in range(TRACED_ROUNDS)]
    if run.problems:
        return {}  # a path failed: no trustworthy per-layer figures
    counts = [r["counts"] for r in rounds]
    if any(c != counts[0] for c in counts[1:]):
        run.fail(f"counts differ between traced rounds of one seed: {counts}")

    def median(key: str, name: str) -> float:
        return statistics.median(r[key].get(name, 0.0) for r in rounds)

    metrics: dict[str, tuple[float, str]] = {}
    for span in LAYER_SPANS:
        metrics[f"layer.{span}_s"] = (median("self_s", span), "s")
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    series = inp.series
    metrics["layer.packed_mb"] = (-(-series.sigma * series.length // 64) * 8 / 1e6, "MB")
    metrics["layer.prune_keep_ratio"] = (
        counts[0]["layer.prune_kept"] / (series.sigma * w.max_period), "ratio"
    )
    # The exact engine's pool workers are the only child processes; a
    # forked worker's peak counts the pages it shares with this process.
    metrics["layer.worker_peak_mem_mb"] = (peak_mb(resource.RUSAGE_CHILDREN), "MB")
    per_path = {}
    for path in wl.PATHS:
        traced_s = median("traced_s", path)
        unattributed = median("unattributed_s", path)
        per_path[path] = {
            "traced_s": traced_s, "untraced_s": untraced[path],
            "unattributed_s": unattributed,
            "unattributed_share": unattributed / traced_s,
            "overhead_ratio": traced_s / untraced[path],
        }
        print(f"trace {path:<11} traced {traced_s:8.3f} s  untraced "
              f"{untraced[path]:8.3f} s  trace.unattributed_s {unattributed:.4f} "
              f"({unattributed / traced_s:.1%})  trace.overhead_ratio "
              f"{traced_s / untraced[path]:.3f}")
    total_traced = sum(p["traced_s"] for p in per_path.values())
    metrics["trace.unattributed_s"] = (
        sum(p["unattributed_s"] for p in per_path.values()), "s")
    metrics["trace.max_unattributed_share"] = (
        max(p["unattributed_share"] for p in per_path.values()), "ratio")
    metrics["trace.overhead_ratio"] = (
        total_traced / sum(untraced.values()), "ratio")
    trace_file = OUT_DIR / f"{w.name}.trace.json"
    trace_file.write_text(json.dumps({
        "workload": w.name, "seed": seed, "paths": per_path,
        "layers_by_path": rounds[-1]["layers"],
        "span_fields": ["name", "start", "end", "parent", "pairs"],
        "spans": rounds[-1]["spans"],
    }))
    print(f"trace written to {trace_file.relative_to(HERE.parent)}")
    return metrics


def _traced_round(run: Run, first: dict) -> dict:
    """One traced pass over every path, checked like the timed ones."""
    w, inp = run.workload, run.inputs
    tracer = tracing.Tracer()
    replayed = {
        "mine": tracing.traced_mine,
        "exact_mine": tracing.traced_exact_mine,
        "pipeline": tracing.traced_pipeline,
        "cli_mine": tracing.traced_cli_mine,
    }
    outputs: dict[str, object] = {}
    with tracing.patched(tracer):
        for path in wl.PATHS:

            def root(call, path=path):
                with tracer.span(tracing.ROOT_PREFIX + path) as record:
                    output = call()
                return record[2] - record[1], output

            run.attempted += 1
            gc.collect()
            try:
                if path in replayed:
                    _, outputs[path] = root(lambda: replayed[path](tracer, w, inp))
                else:
                    _, outputs[path] = wl.run_path(path, w, inp, timer=root)
            except Exception:
                run.fail(f"traced {path} raised:\n{traceback.format_exc()}")
    retries = -1
    if "exact_mine" in outputs:
        outputs["exact_mine"], retries = outputs["exact_mine"]
    for path, output in outputs.items():
        expected = first[path]
        if path == "cli_mine":
            ok = expected.rstrip().endswith(output)
        else:
            ok = output == expected
        if not ok:
            run.fail(f"traced {path} output differs from the untraced output")
    self_s, span_counts, paths = tracing.summarize(tracer.spans)
    counts = {"layer.shard_retries": retries}
    if len(outputs) == len(wl.PATHS):
        counts.update(_counts(w, inp, outputs, span_counts))
    return {
        "self_s": self_s,
        "counts": counts,
        "traced_s": {p: v["traced_s"] for p, v in paths.items()},
        "unattributed_s": {p: v["unattributed_s"] for p, v in paths.items()},
        "layers": {p: v["layers"] for p, v in paths.items()},
        "spans": tracer.spans,
    }


def _counts(w: wl.Workload, inp: wl.Inputs, outputs: dict, span_counts: dict) -> dict:
    """The exact count metrics of one traced round."""
    from repro import SpectralMiner

    series = inp.series
    mined, exact, report = outputs["mine"], outputs["exact_mine"], outputs["pipeline"]
    table = exact.table
    cells = [table.counts_for(p) for p in table.periods]
    periods = w.pattern_periods or table.candidate_periods(wl.PSI)
    choices: dict[tuple[int, int], int] = {}
    for hit in mined.periodicities:
        if hit.period in periods:
            key = (hit.period, hit.position)
            choices[key] = choices.get(key, 0) + 1
    space = 0
    for period in periods:
        product = 1
        for position in range(period):
            product *= choices.get((period, position), 0) + 1
        space += product - 1
    prune = SpectralMiner(psi=wl.PSI, max_period=w.max_period)
    return {
        "layer.prune_kept": len(prune.candidate_period_symbols(series, wl.PSI)),
        "layer.table_cells": sum(len(c) for c in cells),
        "layer.pairs_counted": sum(sum(c.values()) for c in cells),
        "layer.periodicities_found": len(mined.periodicities),
        "layer.candidate_space": space,
        "layer.patterns_kept": len(mined.patterns),
        "layer.bases_found": len(report.families),
        "layer.anomalies_found": len(report.anomalies),
        "layer.pairs_added": span_counts.get("scatter_add", 0),
        "layer.pairs_retracted": span_counts.get("scatter_sub", 0),
        "layer.checks": span_counts.get("confidence", 0),
    }


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The exact engine shuts its process pool down without waiting for the
    workers, and its shared-memory export starts multiprocessing's
    resource tracker, which otherwise outlives this process.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()  # closes its pipe and waits
    for pid in child_pids():
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed rounds run (end-to-end mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run, first, setup_s = set_up(wl.WORKLOADS[args.workload], args.seed)
        try:
            check_references(run, first)
            if run.problems:
                metrics = {}  # an output is wrong: timing it would mislead
            elif args.trace:
                metrics = traced(run, first, args.seed)
            else:
                metrics = end_to_end(run, first, args.seconds, setup_s)
        finally:
            run.inputs.path.unlink(missing_ok=True)
    finally:
        stop_children()
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(f"failed operations: {run.failed} of {run.attempted} "
          f"({run.failed / max(run.attempted, 1):.1%})")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
