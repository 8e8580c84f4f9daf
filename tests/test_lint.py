"""Tests for the stdlib annotation gate, :mod:`repro.lint.annotations`.

The repository's structural invariants (engine names in the docs,
mutable defaults, bare ``except:``) are checked in
``test_invariants.py``.
"""

from pathlib import Path

from repro.lint.annotations import check_annotations

REPO = Path(__file__).resolve().parent.parent


class TestRepoGates:
    """The acceptance criteria, as tests the suite enforces forever."""

    def test_annotation_gate_clean_on_strict_targets(self):
        findings = check_annotations(
            [
                REPO / "src" / "repro" / "core",
                REPO / "src" / "repro" / "convolution",
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

    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        (finding,) = check_annotations([tmp_path])
        assert finding.rule == "PARSE"
        assert finding.render().startswith(f"{target}:1:")
