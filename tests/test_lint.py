"""Tests for repro.lint — framework, CLI, suppressions, and the meta-gate.

Per-rule fixture tests (each known-bad snippet must trigger, each
known-good must not) live in ``test_lint_rules.py``; this module covers
the shared machinery plus the repo-level acceptance gates: the analyzer
runs clean over ``src/`` and the annotation gate runs clean over the
strict typing targets.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import (
    FileContext,
    Finding,
    all_rules,
    collect_files,
    lint_paths,
    lint_sources,
    main,
)
from repro.lint.annotations import check_annotations
from repro.lint.framework import parse_suppressions

REPO = Path(__file__).resolve().parent.parent

BAD_UINT64 = """
import numpy as np

def clobber(words):
    words = np.asarray(words, dtype=np.uint64)
    return words & 0xFF
"""


def _findings(source, path="src/fixture.py", select=None):
    ctx = FileContext.from_source(source, path)
    return lint_sources([ctx], select=select)


class TestSuppressions:
    def test_named_rule_suppressed(self):
        src = BAD_UINT64.replace(
            "return words & 0xFF",
            "return words & 0xFF  # repro-lint: ignore[RL001]",
        )
        assert _findings(src) == []

    def test_rule_list_suppressed(self):
        src = BAD_UINT64.replace(
            "return words & 0xFF",
            "return words & 0xFF  # repro-lint: ignore[RL001, RL003]",
        )
        assert _findings(src) == []

    def test_bare_ignore_suppresses_everything(self):
        src = BAD_UINT64.replace(
            "return words & 0xFF",
            "return words & 0xFF  # repro-lint: ignore",
        )
        assert _findings(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = BAD_UINT64.replace(
            "return words & 0xFF",
            "return words & 0xFF  # repro-lint: ignore[RL005]",
        )
        findings = _findings(src)
        assert [f.rule for f in findings] == ["RL001"]

    def test_suppression_only_applies_to_its_line(self):
        src = BAD_UINT64 + (
            "\ndef again(words):\n"
            "    words = np.asarray(words, dtype=np.uint64)\n"
            "    return words | 1\n"
        )
        src = src.replace(
            "return words & 0xFF",
            "return words & 0xFF  # repro-lint: ignore[RL001]",
        )
        findings = _findings(src)
        assert len(findings) == 1
        assert findings[0].rule == "RL001"

    def test_parser_handles_case_and_spacing(self):
        out = parse_suppressions("x = 1  #  repro-lint:  ignore[rl001]\n")
        assert out == {1: frozenset({"RL001"})}


class TestFramework:
    def test_findings_sort_by_position(self):
        a = Finding("b.py", 1, 1, "RL001", "m")
        b = Finding("a.py", 9, 1, "RL001", "m")
        assert sorted([a, b]) == [b, a]

    def test_render_format(self):
        finding = Finding("x.py", 3, 7, "RL001", "boom")
        assert finding.render() == "x.py:3:7: RL001 boom"

    def test_rule_ids_unique_and_complete(self):
        ids = [rule.id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        assert {"RL001", "RL003", "RL004", "RL005"} <= set(ids)

    def test_every_rule_has_metadata(self):
        for rule in all_rules():
            assert rule.id and rule.name and rule.rationale

    def test_select_filters_rules(self):
        findings = _findings(BAD_UINT64, select=["RL003"])
        assert findings == []
        findings = _findings(BAD_UINT64, select=["RL001"])
        assert [f.rule for f in findings] == ["RL001"]


class TestCollection:
    def test_collect_splits_python_and_markdown(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.md").write_text("# hi\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
        python, markdown = collect_files([tmp_path])
        assert [p.name for p in python] == ["a.py"]
        assert [p.name for p in markdown] == ["b.md"]

    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert findings[0].rule == "PARSE"


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0

    def test_findings_exit_nonzero_and_print(self, tmp_path, capsys):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(BAD_UINT64)
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "bad.py" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL003", "RL004", "RL005"):
            assert rule_id in out


class TestRepoGates:
    """The acceptance criteria, as tests the suite enforces forever."""

    def test_lint_runs_clean_on_src(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_lint_runs_clean_on_tests_and_docs(self):
        findings = lint_paths(
            [REPO / "src", REPO / "tests", REPO / "docs", REPO / "README.md"]
        )
        assert findings == [], [f.render() for f in findings]

    def test_annotation_gate_clean_on_strict_targets(self):
        findings = check_annotations(
            [
                REPO / "src" / "repro" / "core",
                REPO / "src" / "repro" / "convolution",
                REPO / "src" / "repro" / "parallel",
                REPO / "src" / "repro" / "lint",
                REPO / "src" / "repro" / "pipeline.py",
                REPO / "src" / "repro" / "cli.py",
            ]
        )
        assert findings == [], [f.render() for f in findings]


class TestAnnotationGate:
    def test_flags_missing_param_and_return(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(x):\n    return x\n")
        findings = check_annotations([target])
        assert len(findings) == 1
        assert "x" in findings[0].message
        assert "return" in findings[0].message

    def test_methods_exempt_self_but_not_params(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "class C:\n"
            "    def ok(self) -> None: ...\n"
            "    def bad(self, y): ...\n"
        )
        findings = check_annotations([target])
        assert len(findings) == 1
        assert "'bad'" in findings[0].message
        assert "self" not in findings[0].message

    def test_varargs_must_be_annotated(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(*args, **kw) -> None: ...\n")
        findings = check_annotations([target])
        assert len(findings) == 1
        assert "*args" in findings[0].message
        assert "**kw" in findings[0].message

    def test_fully_annotated_passes(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(x: int, *a: str, **k: float) -> int:\n    return x\n"
        )
        assert check_annotations([target]) == []
