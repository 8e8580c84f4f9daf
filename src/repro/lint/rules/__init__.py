"""The rule registry of the repro static analyzer.

Adding a rule: implement :class:`~repro.lint.framework.Rule` (one file)
or :class:`~repro.lint.framework.ProjectRule` (cross-file) in a new
``rlNNN_*.py`` module, give it a unique ``id``, and list an instance
here.  See ``docs/development.md`` for the full walkthrough.
"""

from __future__ import annotations

from ..framework import ProjectRule, Rule
from .rl001_uint64 import Uint64Safety
from .rl004_engines import EngineRegistryParity
from .rl005_hygiene import LibraryHygiene

__all__ = ["FILE_RULES", "PROJECT_RULES", "all_rules"]

FILE_RULES: tuple[Rule, ...] = (
    Uint64Safety(),
    LibraryHygiene(),
)

PROJECT_RULES: tuple[ProjectRule, ...] = (EngineRegistryParity(),)


def all_rules() -> tuple[Rule | ProjectRule, ...]:
    """Every registered rule, file-scoped first, ordered by id."""
    return tuple(
        sorted(FILE_RULES + PROJECT_RULES, key=lambda rule: rule.id)
    )
