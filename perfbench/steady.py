"""Steadiness and count self-checks of the benchmark.

Run from the repository root::

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --counts

The first form runs ``run.py`` on two sets of seeds for every workload
(seeds ``1 ..`` and, held out, ``1001 ..``) and prints, for each
end-to-end metric, the spread of each set -- the distance between the
first and third quartile as a share of the median -- and how far the
second set's median moved from the first's in the worse direction, both
against the metric's bound in ``BENCHMARK.json``.

``--counts`` runs the traced benchmark twice on one seed and once on a
held-out seed per workload; every count metric must repeat exactly on
the same seed and stay within one order of magnitude on the other.

Exits non-zero if any run fails or any check is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in its own process; returns its JSON result."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} reported failures")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(workloads: list[str], seeds: int) -> bool:
    ok = True
    for workload in workloads:
        first: dict[str, list[float]] = {}
        second: dict[str, list[float]] = {}
        for index in range(1, seeds + 1):
            for values, seed in ((first, index), (second, 1000 + index)):
                for name, metric in run(workload, seed, 0)["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        print(f"{workload}  ({seeds} seeds x 2 sets)")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spreads = [spread(first[name]), spread(second[name])]
            before = statistics.median(first[name])
            after = statistics.median(second[name])
            worse = 1.0 if metric["better"] == "lower" else -1.0
            shift = worse * (after - before) / before
            good = max(spreads) <= bound and shift <= bound
            ok &= good
            print(f"  {name:<18} median {before:14.4f} {metric['unit']:<6} "
                  f"spread {spreads[0]:6.1%} {spreads[1]:6.1%}  "
                  f"shift {shift:+6.1%}  bound {bound:.0%}  "
                  f"{'ok' if good else 'OUT OF BOUND'}"
                  f"{'' if max(spreads) < bound / 3 else '  (spread > bound/3)'}")
    return ok


def counts(workloads: list[str]) -> bool:
    ok = True
    for workload in workloads:
        first, again, held_out = (
            {k: v["value"] for k, v in run(workload, seed, 1)["metrics"].items()
             if v["unit"] == "count"}
            for seed in (1, 1, 1001)
        )
        print(f"{workload}  (seed 1 twice, seed 1001 held out)")
        for name, value in first.items():
            repeats = again[name] == value
            other = held_out[name]
            same_magnitude = (value == other == 0) or (
                value > 0 and other > 0
                and abs(math.log10(other / value)) < 1
            )
            ok &= repeats and same_magnitude
            print(f"  {name:<26} {value:>14} {'repeats' if repeats else 'DIFFERS':<8}"
                  f" held-out {other:>14}"
                  f"{'' if same_magnitude else '  (order of magnitude changed)'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--counts", action="store_true",
                        help="check count repeatability instead of spreads")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    ok = counts(workloads) if args.counts else steadiness(workloads, args.seeds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
