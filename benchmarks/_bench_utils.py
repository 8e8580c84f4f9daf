"""Shared helpers for the benchmark harness.

Each bench regenerates one table or figure of the paper and registers
the rendered text here; the conftest prints everything in the terminal
summary (so it lands in ``bench_output.txt``) and mirrors it to the
untracked ``benchmarks/out/``.  The tracked tables in
``benchmarks/results/`` change only when copied from there on purpose
(EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

#: name -> rendered text, printed by pytest_terminal_summary.
RESULTS: dict[str, str] = {}

OUT_DIR = Path(__file__).parent / "out"


def record(name: str, text: str) -> None:
    """Register a rendered experiment output and persist it to disk."""
    RESULTS[name] = text
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
