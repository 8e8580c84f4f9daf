"""Command-line interface: mine, inspect, generate, and reproduce.

Installed as the ``repro`` console script (also ``python -m repro``):

* ``repro mine SERIES.txt --psi 0.7`` — mine obscure periodic patterns
  from a one-character-per-symbol text file;
* ``repro periods SERIES.txt --psi 0.5 [--significant]`` — list the
  candidate periods (optionally filtered by the binomial null test);
* ``repro stream SERIES.txt --psi 0.6 [--window W]`` — mine through the
  chunked streaming layer (sliding-window with ``--window``, else online);
* ``repro generate {synthetic,power,retail,eventlog} --out FILE`` —
  write workload files with the paper's generators;
* ``repro experiment {fig3a,fig3b,...,table3,all}`` — regenerate one
  table or figure of the paper (or all of them) and print it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .analysis.significance import significant_periods
from .core import ENGINES, Alphabet, SymbolSequence, mine
from .core.results import ALGORITHMS, check_mine_options
from .core.spectral_miner import SpectralMiner
from .data import (
    EventLogSimulator,
    PowerConsumptionSimulator,
    RetailTransactionsSimulator,
    apply_noise,
    generate_periodic,
)
from .experiments import EXPERIMENT_NAMES, run_all, write_report
from .streaming import write_symbol_file

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Obscure periodic pattern mining in one pass (EDBT 2004).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine_cmd = commands.add_parser("mine", help="mine patterns from a symbol file")
    mine_cmd.add_argument("series", type=Path, help="one-character-per-symbol file")
    mine_cmd.add_argument("--psi", type=float, required=True,
                          help="periodicity threshold in (0, 1]")
    mine_cmd.add_argument("--alphabet", default=None,
                          help="symbol order, e.g. 'abcde' (default: sorted)")
    mine_cmd.add_argument("--algorithm", choices=ALGORITHMS,
                          default="spectral")
    mine_cmd.add_argument("--engine",
                          choices=ENGINES,
                          default="bitand",
                          help="exact engine for --algorithm convolution "
                               "(parallel = shifted compare on a thread pool)")
    mine_cmd.add_argument("--workers", type=int, default=None,
                          help="thread cap of the count kernel, for the "
                               "default algorithm and --engine parallel "
                               "(default: CPU count)")
    mine_cmd.add_argument("--max-period", type=int, default=None)
    mine_cmd.add_argument("--periods", default=None,
                          help="comma-separated periods to mine patterns at")
    mine_cmd.add_argument("--max-arity", type=int, default=None)
    mine_cmd.add_argument("--top", type=int, default=20,
                          help="patterns to print (by support)")

    periods_cmd = commands.add_parser(
        "periods", help="list candidate periods of a symbol file"
    )
    periods_cmd.add_argument("series", type=Path)
    periods_cmd.add_argument("--psi", type=float, required=True)
    periods_cmd.add_argument("--alphabet", default=None)
    periods_cmd.add_argument("--max-period", type=int, default=None)
    periods_cmd.add_argument("--min-pairs", type=int, default=1)
    periods_cmd.add_argument("--significant", action="store_true",
                             help="keep only binomially significant periods")
    periods_cmd.add_argument("--alpha", type=float, default=1e-3)
    periods_cmd.add_argument("--bases", action="store_true",
                             help="collapse harmonic families to base periods")
    periods_cmd.add_argument("--sample-seconds", type=float, default=None,
                             help="sampling interval; names periods in "
                                  "calendar units and flags DST-style variants")

    generate_cmd = commands.add_parser("generate", help="write a workload file")
    generate_cmd.add_argument(
        "workload", choices=("synthetic", "power", "retail", "eventlog")
    )
    generate_cmd.add_argument("--out", type=Path, required=True)
    generate_cmd.add_argument("--seed", type=int, default=2004)
    generate_cmd.add_argument("--length", type=int, default=10_000,
                              help="synthetic/eventlog length in symbols")
    generate_cmd.add_argument("--period", type=int, default=25,
                              help="synthetic embedded period")
    generate_cmd.add_argument("--sigma", type=int, default=10,
                              help="synthetic alphabet size")
    generate_cmd.add_argument("--distribution", choices=("uniform", "normal"),
                              default="uniform")
    generate_cmd.add_argument("--noise", type=float, default=0.0,
                              help="noise ratio in [0, 1]")
    generate_cmd.add_argument("--noise-kinds", default="R",
                              help="noise combination, e.g. R, I-D, R-I-D")
    generate_cmd.add_argument("--days", type=int, default=None,
                              help="power/retail length in days")
    generate_cmd.add_argument("--dst", action="store_true",
                              help="retail: apply the daylight-saving shift")

    stream_cmd = commands.add_parser(
        "stream",
        help="mine a symbol file through the chunked streaming layer",
    )
    stream_cmd.add_argument("series", type=Path)
    stream_cmd.add_argument("--psi", type=float, required=True,
                            help="periodicity threshold in (0, 1]")
    stream_cmd.add_argument("--alphabet", default=None,
                            help="symbol order; when given, the file is "
                                 "streamed block-by-block without ever "
                                 "loading it whole")
    stream_cmd.add_argument("--max-period", type=int, default=128,
                            help="largest period maintained (default 128)")
    stream_cmd.add_argument("--window", type=int, default=None,
                            help="sliding-window length; omit for "
                                 "whole-stream online mining")
    stream_cmd.add_argument("--top", type=int, default=20,
                            help="periodicities to print (by support)")

    forecast_cmd = commands.add_parser(
        "forecast", help="predict upcoming symbols from mined periodicity"
    )
    forecast_cmd.add_argument("series", type=Path)
    forecast_cmd.add_argument("--horizon", type=int, required=True)
    forecast_cmd.add_argument("--period", type=int, default=None,
                              help="condition on this period (default: discover)")
    forecast_cmd.add_argument("--max-period", type=int, default=None)
    forecast_cmd.add_argument("--alphabet", default=None)
    forecast_cmd.add_argument("--evaluate", action="store_true",
                              help="hold out the horizon and report accuracy")

    experiment_cmd = commands.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment_cmd.add_argument("name", choices=(*EXPERIMENT_NAMES, "all"))
    experiment_cmd.add_argument("--quick", action="store_true",
                                help="smaller workloads (seconds, not minutes)")
    experiment_cmd.add_argument("--report", type=Path, default=None,
                                help="with 'all': also write a markdown report")
    return parser


def _load_series(path: Path, alphabet_spec: str | None) -> SymbolSequence:
    text = path.read_text(encoding="ascii").strip()
    if not text:
        raise SystemExit(f"error: {path} is empty")
    alphabet = Alphabet(alphabet_spec) if alphabet_spec else None
    try:
        return SymbolSequence.from_string(text, alphabet)
    except KeyError as error:
        raise SystemExit(f"error: symbol {error} not in the given alphabet")


def _check_top(top: int) -> None:
    if top < 0:
        raise ValueError("--top must be >= 0")


def _cmd_mine(args: argparse.Namespace) -> int:
    _check_top(args.top)
    series = _load_series(args.series, args.alphabet)
    periods = (
        [int(p) for p in args.periods.split(",")] if args.periods else None
    )
    result = mine(
        series,
        psi=args.psi,
        algorithm=args.algorithm,
        max_period=args.max_period,
        periods=periods,
        max_arity=args.max_arity,
        engine=args.engine,
        workers=args.workers,
    )
    print(f"series: n={series.length}, sigma={series.sigma}")
    print(result.render(limit=args.top))
    return 0


def _cmd_periods(args: argparse.Namespace) -> int:
    check_mine_options(args.psi)
    if args.sample_seconds is not None and not args.sample_seconds > 0:
        raise ValueError("sample_seconds must be positive")
    if not 0 < args.alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    series = _load_series(args.series, args.alphabet)
    miner = SpectralMiner(psi=args.psi, max_period=args.max_period)
    table = miner.periodicity_table(series)
    if args.significant:
        periods = significant_periods(
            series, table, args.psi, alpha=args.alpha, min_pairs=args.min_pairs
        )
    else:
        periods = table.candidate_periods(args.psi, min_pairs=args.min_pairs)
    print(f"candidate periods at psi={args.psi:.2f}: {len(periods)}")
    if args.bases:
        from .analysis.harmonics import group_harmonics

        for family in group_harmonics(periods, table.confidence):
            harmonics = ", ".join(map(str, family.harmonics)) or "-"
            print(
                f"  base {family.base:>6}  confidence {family.confidence:.3f}"
                f"  harmonics: {harmonics}"
            )
    else:
        describe = None
        if args.sample_seconds is not None:
            from .analysis.calendar import describe_period

            describe = describe_period
        for period in periods:
            line = f"  {period:>6}  confidence {table.confidence(period):.3f}"
            if describe is not None:
                description = describe(period, args.sample_seconds)
                marker = "  [obscure]" if description.is_obscure_variant else ""
                line += f"  = {description.text}{marker}"
            print(line)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.workload == "synthetic":
        series = generate_periodic(
            args.length, args.period, args.sigma, args.distribution, rng
        )
        if args.noise > 0:
            series = apply_noise(series, args.noise, args.noise_kinds, rng)
    elif args.workload in ("power", "retail"):
        simulator: PowerConsumptionSimulator | RetailTransactionsSimulator = (
            PowerConsumptionSimulator() if args.workload == "power"
            else RetailTransactionsSimulator(dst=args.dst)
        )
        if args.days is not None:  # omitted: the simulator's default length
            simulator = dataclasses.replace(simulator, days=args.days)
        series = simulator.series(rng)
    else:
        series = EventLogSimulator(length=args.length).series(rng)
    write_symbol_file(series, args.out)
    print(f"wrote {series.length} symbols (sigma={series.sigma}) to {args.out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .streaming import DEFAULT_CHUNK_SIZE, ChunkedReader, OnlineMiner, SlidingWindowMiner

    _check_top(args.top)
    check_mine_options(args.psi)
    if args.alphabet:
        # True one-pass mode: never hold more than a block in memory.
        alphabet = Alphabet(args.alphabet)
        reader = ChunkedReader(args.series, alphabet=alphabet,
                               block_size=DEFAULT_CHUNK_SIZE)
    else:
        series = _load_series(args.series, None)
        alphabet = series.alphabet
        reader = ChunkedReader(series, block_size=DEFAULT_CHUNK_SIZE)
    if args.window is not None:
        miner: OnlineMiner = SlidingWindowMiner(
            alphabet, max_period=args.max_period, window=args.window
        )
    else:
        miner = OnlineMiner(alphabet, max_period=args.max_period)
    try:
        fed = reader.feed_into(miner)
    except KeyError as error:
        raise SystemExit(f"error: symbol {error} not in the given alphabet")
    scope = (
        f"window of last {miner.size}" if isinstance(miner, SlidingWindowMiner)
        else "whole stream"
    )
    print(
        f"streamed {fed} symbols (sigma={len(alphabet)}); "
        f"evidence over the {scope}"
    )
    hits = miner.periodicities(args.psi)
    hits.sort(key=lambda h: -h.support)
    print(f"periodicities at psi={args.psi:.2f}: {len(hits)}")
    for hit in hits[: args.top]:
        print(
            f"  period {hit.period:>5}  pos {hit.position:>5}  "
            f"symbol {alphabet.symbol(hit.symbol_code)!r}  "
            f"support {hit.support:.3f}"
        )
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    from .analysis.forecast import PeriodicForecaster, evaluate_forecaster

    series = _load_series(args.series, args.alphabet)
    if args.evaluate:
        evaluation = evaluate_forecaster(
            series, args.horizon, period=args.period, max_period=args.max_period
        )
        print(
            f"hold-out accuracy over {evaluation.horizon} symbols: "
            f"{evaluation.accuracy:.3f} "
            f"(mode baseline {evaluation.baseline_accuracy:.3f}, "
            f"lift {evaluation.lift:+.3f})"
        )
        return 0
    forecaster = PeriodicForecaster(
        period=args.period, max_period=args.max_period
    ).fit(series)
    predicted = forecaster.predict(args.horizon)
    print(f"period: {forecaster.period}")
    print("forecast: " + "".join(map(str, predicted)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    only = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
    results = run_all(quick=args.quick, only=only)
    if args.name != "all":
        print(results[args.name])
        return 0
    for name, text in results.items():
        print(f"==== {name} ====")
        print(text)
        print()
    if args.report is not None:
        path = write_report(results, args.report)
        print(f"report written to {path}")
    return 0


_HANDLERS = {
    "mine": _cmd_mine,
    "periods": _cmd_periods,
    "generate": _cmd_generate,
    "stream": _cmd_stream,
    "forecast": _cmd_forecast,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A ``ValueError`` from a command (an out-of-range ``--psi``, a
    non-numeric ``--periods`` entry, ...) is a usage error: it prints
    one ``repro <command>: error: <message>`` line on stderr and
    returns 2, argparse's usage-error code, instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
