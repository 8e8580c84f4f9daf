"""Strict annotation gate — the stdlib backstop behind ``make typecheck``.

The typing policy (``docs/development.md``) requires complete signatures
across the strict modules: every parameter (including ``*args`` /
``**kwargs``, excluding ``self``/``cls``) and every return type must be
annotated, mirroring mypy's ``disallow_untyped_defs`` +
``disallow_incomplete_defs``.  When mypy is installed (the CI path,
via the ``dev`` extra) ``scripts/typecheck.py`` runs it with the strict
``[tool.mypy]`` configuration; in environments without mypy this gate
enforces the annotation-completeness half with nothing but ``ast``, so
``make typecheck`` always means something.

Run directly::

    python -m repro.lint.annotations src/repro/core src/repro/cli.py
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "check_annotations", "annotation_findings", "main"]

_RULE = "ANN001"


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One incomplete signature (or unparsable file), by file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _missing_in(function: ast.FunctionDef | ast.AsyncFunctionDef,
                is_method: bool) -> list[str]:
    args = function.args
    named = args.posonlyargs + args.args
    missing = []
    for index, arg in enumerate(named):
        if is_method and index == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    missing.extend(
        arg.arg for arg in args.kwonlyargs if arg.annotation is None
    )
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"*{args.vararg.arg}")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"**{args.kwarg.arg}")
    if function.returns is None:
        missing.append("return")
    return missing


def annotation_findings(tree: ast.Module, path: str) -> list[Finding]:
    """Every incomplete signature in one parsed file."""
    findings: list[Finding] = []
    method_lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_lines.add(stmt.lineno)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        missing = _missing_in(node, is_method=node.lineno in method_lines)
        if not missing:
            continue
        findings.append(
            Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset + 1,
                rule=_RULE,
                message=(
                    f"function {node.name!r} has unannotated "
                    f"{', '.join(missing)}"
                ),
            )
        )
    return findings


def check_annotations(paths: Sequence[str | Path]) -> list[Finding]:
    """Scan files/directories for incomplete signatures."""
    findings: list[Finding] = []
    for path in _python_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError as error:
            findings.append(
                Finding(
                    path=str(path),
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    rule="PARSE",
                    message=f"syntax error: {error.msg}",
                )
            )
            continue
        findings.extend(annotation_findings(tree, str(path)))
    return sorted(findings)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.lint.annotations``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint.annotations",
        description="Require complete type annotations (mypy fallback).",
    )
    parser.add_argument("paths", nargs="+", help="files/directories to check")
    args = parser.parse_args(argv)
    findings = check_annotations(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} incomplete signature(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
