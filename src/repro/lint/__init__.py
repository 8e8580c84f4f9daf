"""repro.lint — static analysis of this repository's own invariants.

The test suite samples behaviour; these analyzers enforce the
structural invariants the exact miner's correctness rests on — packed
``uint64`` arithmetic discipline, picklable process-pool targets,
engine-registry parity, and library hygiene —
over every scanned file, statically.  Run with::

    python -m repro.lint [paths]      # default: src
    python -m repro.lint --list-rules

Suppress a finding on one line with ``# repro-lint: ignore[RL001]``
(or bare ``# repro-lint: ignore`` for every rule).  The companion
annotation gate (``python -m repro.lint.annotations``) backs the
``make typecheck`` target when mypy is not installed.
"""

from .framework import FileContext, Finding, ProjectRule, Rule
from .rules import FILE_RULES, PROJECT_RULES, all_rules
from .runner import collect_files, lint_paths, lint_sources, main

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "ProjectRule",
    "FILE_RULES",
    "PROJECT_RULES",
    "all_rules",
    "collect_files",
    "lint_paths",
    "lint_sources",
    "main",
]
