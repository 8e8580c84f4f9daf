"""Run every reproduction experiment and collect a report.

`run_all` regenerates all seven paper artifacts (optionally at the quick
scale) and returns the rendered texts; `write_report` persists them as
one markdown file — the machine-written companion to ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from .fig3 import Fig3Config, render_fig3, run_fig3
from .fig4 import Fig4Config, render_fig4, run_fig4
from .fig5 import Fig5Config, render_fig5, run_fig5
from .fig6 import Fig6Config, render_fig6, run_fig6
from .table1 import Table1Config, render_table1, run_table1
from .table2 import Table2Config, render_table2, run_table2
from .table3 import Table3Config, render_table3, run_table3

__all__ = ["EXPERIMENT_NAMES", "run_all", "write_report"]

EXPERIMENT_NAMES = (
    "fig3a", "fig3b", "fig4a", "fig4b", "fig5", "fig6a", "fig6b",
    "table1", "table2", "table3",
)


def _renderers(quick: bool) -> dict[str, Callable[[], str]]:
    if quick:
        fig3 = dict(runs=1, length=10_000, multiples=(1, 2, 3))
        fig4 = dict(runs=1, length=4_000, method="exact",
                    multiples=(1, 5, 20, 60))
        fig5 = Fig5Config(sizes=(4_096, 8_192, 16_384), repeats=2)
        fig6 = dict(runs=1, length=10_000, ratios=(0.0, 0.2, 0.4))
        table1 = Table1Config(retail_days=120, retail_max_period=200)
        table2 = Table2Config(retail_days=120)
        table3 = Table3Config(retail_days=120)
    else:
        fig3, fig4, fig6 = {}, {}, {}
        fig5 = Fig5Config()
        table1, table2, table3 = Table1Config(), Table2Config(), Table3Config()
    fig3a, fig3b = Fig3Config(**fig3), Fig3Config(noisy=True, **fig3)
    fig4a, fig4b = Fig4Config(**fig4), Fig4Config(noisy=True, **fig4)
    fig6a = Fig6Config(**fig6)
    fig6b = Fig6Config(distribution="normal", period=32, **fig6)
    return {
        "fig3a": lambda: render_fig3(run_fig3(fig3a), fig3a),
        "fig3b": lambda: render_fig3(run_fig3(fig3b), fig3b),
        "fig4a": lambda: render_fig4(run_fig4(fig4a), fig4a),
        "fig4b": lambda: render_fig4(run_fig4(fig4b), fig4b),
        "fig5": lambda: render_fig5(run_fig5(fig5)),
        "fig6a": lambda: render_fig6(run_fig6(fig6a), fig6a),
        "fig6b": lambda: render_fig6(run_fig6(fig6b), fig6b),
        "table1": lambda: render_table1(run_table1(table1)),
        "table2": lambda: render_table2(run_table2(table2), table2),
        "table3": lambda: render_table3(run_table3(table3), table3),
    }


def run_all(
    quick: bool = True, only: tuple[str, ...] | None = None
) -> dict[str, str]:
    """Run (a subset of) the experiments; returns name -> rendered text."""
    renderers = _renderers(quick)
    names = EXPERIMENT_NAMES if only is None else only
    unknown = set(names) - set(renderers)
    if unknown:
        raise ValueError(f"unknown experiments: {sorted(unknown)}")
    return {name: renderers[name]() for name in names}


def write_report(
    results: dict[str, str], path: str | Path = "experiment_report.md"
) -> Path:
    """Persist rendered experiments as one markdown report."""
    if not results:
        raise ValueError("no results to write")
    path = Path(path)
    blocks = ["# Reproduction experiment report", ""]
    for name, text in results.items():
        blocks.append(f"## {name}")
        blocks.append("```")
        blocks.append(text)
        blocks.append("```")
        blocks.append("")
    path.write_text("\n".join(blocks), encoding="utf-8")
    return path
