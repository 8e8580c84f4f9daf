"""Tests for repro.cli."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.results import ALGORITHMS
from repro.data import generate_periodic
from repro.experiments import EXPERIMENT_NAMES
from repro.streaming import write_symbol_file


@pytest.fixture
def series_file(tmp_path, rng):
    series = generate_periodic(600, 12, 5, rng=rng)
    return write_symbol_file(series, tmp_path / "series.txt")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_requires_psi(self, series_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", str(series_file)])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    def test_experiment_choices_are_the_runner_names(self):
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        (name,) = [
            action for action in commands.choices["experiment"]._actions
            if action.dest == "name"
        ]
        assert tuple(name.choices) == EXPERIMENT_NAMES + ("all",)


class TestMine:
    def test_prints_patterns(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.8", "--periods", "12",
             "--max-arity", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n=600" in out
        assert "p=12" in out

    def test_explicit_alphabet(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.8",
             "--alphabet", "abcdefghij", "--periods", "12", "--max-arity", "1"]
        )
        assert code == 0
        assert "sigma=10" in capsys.readouterr().out

    def test_symbol_outside_alphabet_fails(self, series_file):
        with pytest.raises(SystemExit):
            main(["mine", str(series_file), "--psi", "0.5", "--alphabet", "ab"])

    def test_empty_file_fails(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["mine", str(empty), "--psi", "0.5"])

    def test_convolution_algorithm(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.9",
             "--algorithm", "convolution", "--max-period", "15",
             "--periods", "12", "--max-arity", "1"]
        )
        assert code == 0
        assert "p=12" in capsys.readouterr().out

    def test_parallel_engine_flags(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.9",
             "--algorithm", "convolution", "--engine", "parallel",
             "--workers", "2", "--max-period", "15",
             "--periods", "12", "--max-arity", "1"]
        )
        assert code == 0
        assert "p=12" in capsys.readouterr().out

    def test_rejects_unknown_engine(self, series_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", str(series_file), "--psi", "0.5",
                 "--engine", "quantum"]
            )

    def test_engine_choices_derive_from_registry(self):
        """--engine choices ARE the ENGINES registry (the single source
        of truth), not a hand-copied list."""
        from repro.core import ENGINES

        mine_parser = None
        for action in build_parser()._subparsers._group_actions:
            mine_parser = action.choices.get("mine")
            if mine_parser is not None:
                break
        assert mine_parser is not None
        engine_action = next(
            a for a in mine_parser._actions if "--engine" in a.option_strings
        )
        assert tuple(engine_action.choices) == ENGINES
        assert engine_action.default in ENGINES

    def test_engine_alias_exported(self):
        import repro
        from repro.core.convolution_miner import Engine

        assert repro.Engine is Engine
        # read off the Literal aliases, in the CLI's choice order
        assert repro.ENGINES == ("bitand", "kronecker", "parallel")
        assert ALGORITHMS == ("spectral", "convolution")


class TestPeriods:
    def test_lists_candidates(self, series_file, capsys):
        code = main(["periods", str(series_file), "--psi", "0.8",
                     "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "12" in out and "candidate periods" in out

    def test_significant_filter_shrinks_list(self, series_file, capsys):
        main(["periods", str(series_file), "--psi", "0.6", "--max-period", "60"])
        raw = capsys.readouterr().out
        main(["periods", str(series_file), "--psi", "0.6", "--max-period", "60",
              "--significant"])
        filtered = capsys.readouterr().out
        raw_count = int(raw.split(":")[1].split()[0])
        filtered_count = int(filtered.split(":")[1].split()[0])
        assert filtered_count <= raw_count


class TestStream:
    def test_online_mining(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed 600 symbols" in out
        assert "whole stream" in out
        assert "period    12" in out

    def test_sliding_window(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--max-period", "20", "--window", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "window of last 120" in out

    def test_streaming_with_explicit_alphabet(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--alphabet", "abcde", "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma=5" in out

    def test_explicit_alphabet_ignores_surrounding_whitespace(
        self, series_file, capsys
    ):
        """Leading/trailing whitespace (a final newline) is ignored under
        --alphabet, as it is without it and by ``repro mine``."""
        argv = ["stream", str(series_file), "--psi", "0.8",
                "--max-period", "40"]
        assert main(argv + ["--alphabet", "abcde"]) == 0
        clean = capsys.readouterr().out
        series_file.write_text("\n " + series_file.read_text() + "\n\n",
                               encoding="ascii")
        assert main(argv + ["--alphabet", "abcde"]) == 0
        assert capsys.readouterr().out == clean
        assert main(argv) == 0
        assert "streamed 600 symbols" in capsys.readouterr().out

    def test_symbol_outside_alphabet_fails(self, series_file):
        with pytest.raises(SystemExit):
            main(["stream", str(series_file), "--psi", "0.5",
                  "--alphabet", "ab"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["mine", "--psi", "1.5"], "psi must be in (0, 1]"),
        (["mine", "--psi", "0.5", "--max-period", "0"],
         "max_period must be >= 1"),
        (["mine", "--psi", "0.5", "--periods", "3,x"], "'x'"),
        (["mine", "--psi", "0.5", "--algorithm", "convolution",
          "--engine", "parallel", "--workers", "0"],
         "workers must be >= 1"),
        (["periods", "--psi", "0.5", "--min-pairs", "0"],
         "min_pairs must be >= 1"),
        (["stream", "--psi", "0.5", "--window", "2", "--max-period", "4"],
         "window must exceed max_period"),
        (["mine", "--psi", "0.5", "--top", "-2"], "--top must be >= 0"),
        (["stream", "--psi", "0.5", "--top", "-1"], "--top must be >= 0"),
    ],
    ids=["psi", "max-period", "periods", "workers", "min-pairs", "window",
         "mine-top", "stream-top"],
)
def test_bad_values_are_usage_errors(series_file, capsys, argv, message):
    """Invalid domain values exit 2 with one argparse-style line."""
    command, options = argv[0], argv[1:]
    code = main([command, str(series_file), *options])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"repro {command}: error: ")
    assert message in err
    assert "Traceback" not in err
    assert err.count("\n") == 1


class TestGenerate:
    @pytest.mark.parametrize(
        "workload,extra",
        [
            ("synthetic", ["--length", "500", "--period", "7", "--noise", "0.1"]),
            ("power", ["--days", "70"]),
            ("retail", ["--days", "10", "--dst"]),
            ("eventlog", ["--length", "400"]),
        ],
    )
    def test_workloads_round_trip(self, tmp_path, capsys, workload, extra):
        out_file = tmp_path / f"{workload}.txt"
        code = main(["generate", workload, "--out", str(out_file)] + extra)
        assert code == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out
        assert len(out_file.read_text().strip()) > 0

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "synthetic", "--out", str(a), "--seed", "7",
              "--length", "300"])
        main(["generate", "synthetic", "--out", str(b), "--seed", "7",
              "--length", "300"])
        assert a.read_text() == b.read_text()


class TestForecast:
    def test_forecast_prints_prediction(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "12",
                     "--period", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "period: 12" in out
        assert "forecast: " in out

    def test_forecast_evaluation(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "60",
                     "--period", "12", "--evaluate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hold-out accuracy" in out and "lift" in out

    def test_discovers_period(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "5",
                     "--max-period", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "period: 12" in out


class TestPeriodsBases:
    def test_bases_collapse_harmonics(self, series_file, capsys):
        code = main(["periods", str(series_file), "--psi", "0.9",
                     "--max-period", "60", "--bases"])
        out = capsys.readouterr().out
        assert code == 0
        assert "base" in out and "harmonics:" in out


@pytest.mark.slow
class TestExperiment:
    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_quick_experiments_render(self, capsys, name):
        code = main(["experiment", name, "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table" in out
