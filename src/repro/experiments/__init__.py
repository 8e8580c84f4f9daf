"""Experiment harness: one module per table and figure of the paper.

Every module exposes a frozen ``*Config`` dataclass, a ``run_*``
function returning structured results, and a ``render_*`` function
that formats such a result as the paper-style text table:
``render_fig3(run_fig3(config), config)``.  ``repro experiment``
(:func:`run_all`) and the paper benches under ``benchmarks/`` print
their tables through these same renderers; the benches time the
``run_*`` call and assert the paper's findings on its result, and
``EXPERIMENTS.md`` records the paper-versus-measured comparison.
"""

from .workloads import DEFAULT_LENGTH, DEFAULT_SIGMA, PAPER_CONFIGS, SyntheticConfig
from .reporting import format_series, format_table
from .fig3 import Fig3Config, render_fig3, run_fig3
from .fig4 import Fig4Config, render_fig4, run_fig4
from .fig5 import Fig5Config, Fig5Row, render_fig5, run_fig5
from .fig6 import Fig6Config, NOISE_COMBOS, render_fig6, run_fig6
from .table1 import Table1Config, Table1Row, render_table1, run_table1
from .table2 import Table2Config, Table2Row, render_table2, run_table2
from .table3 import Table3Config, render_table3, run_table3, select_display_patterns
from .ascii_plot import ascii_plot
from .runner import EXPERIMENT_NAMES, run_all, write_report

__all__ = [
    "DEFAULT_LENGTH",
    "DEFAULT_SIGMA",
    "PAPER_CONFIGS",
    "SyntheticConfig",
    "format_series",
    "format_table",
    "Fig3Config",
    "render_fig3",
    "run_fig3",
    "Fig4Config",
    "render_fig4",
    "run_fig4",
    "Fig5Config",
    "Fig5Row",
    "render_fig5",
    "run_fig5",
    "Fig6Config",
    "NOISE_COMBOS",
    "render_fig6",
    "run_fig6",
    "Table1Config",
    "Table1Row",
    "render_table1",
    "run_table1",
    "Table2Config",
    "Table2Row",
    "render_table2",
    "run_table2",
    "Table3Config",
    "render_table3",
    "run_table3",
    "select_display_patterns",
    "ascii_plot",
    "EXPERIMENT_NAMES",
    "run_all",
    "write_report",
]
