"""Core machinery of the repro static analyzer.

A *rule* inspects one parsed file (:class:`Rule`) or the whole scanned
file set at once (:class:`ProjectRule`, for cross-file invariants like
the engine-registry parity check) and yields :class:`Finding` records.
Findings are suppressed per line with a trailing comment::

    risky_line()  # repro-lint: ignore[RL001]
    risky_line()  # repro-lint: ignore[RL001, RL003]
    risky_line()  # repro-lint: ignore

The bare form suppresses every rule on that line.  Suppressions are
collected with :mod:`tokenize` so they work anywhere a comment can
appear, including inside multi-line expressions (the comment's own line
is the one matched against the finding).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "parse_suppressions",
    "SUPPRESS_ALL",
]

#: sentinel rule id meaning "every rule" in a suppression set.
SUPPRESS_ALL = "*"

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation, pointing at a file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppressed rule ids from ``# repro-lint: ignore`` comments."""
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover - defensive
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION.search(tok.string)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressed = frozenset((SUPPRESS_ALL,))
        else:
            suppressed = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
            if not suppressed:
                suppressed = frozenset((SUPPRESS_ALL,))
        line = tok.start[0]
        out[line] = out.get(line, frozenset()) | suppressed
    return out


class FileContext:
    """One scanned Python file: path, source, AST, and suppressions."""

    __slots__ = ("path", "source", "tree", "suppressions")

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "FileContext":
        """Parse a source string (raises ``SyntaxError`` on bad input)."""
        return cls(path, source, ast.parse(source, filename=path))

    @classmethod
    def from_path(cls, path: Path) -> "FileContext":
        """Read and parse a file from disk."""
        return cls.from_source(
            path.read_text(encoding="utf-8"), path=str(path)
        )

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed on ``line`` of this file."""
        suppressed = self.suppressions.get(line)
        if not suppressed:
            return False
        return SUPPRESS_ALL in suppressed or rule.upper() in suppressed

    def finding(
        self, rule: "Rule | ProjectRule", node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` of ``rule`` anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            message=message,
        )


class Rule:
    """A single-file analyzer.  Subclasses set the metadata and
    implement :meth:`check`."""

    #: short stable identifier, e.g. ``"RL001"``.
    id: str = ""
    #: one-line human name.
    name: str = ""
    #: why the invariant matters for this repository.
    rationale: str = ""

    def applies(self, path: str) -> bool:
        """Whether the rule scans ``path`` at all (default: every file)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation in one file."""
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        """:meth:`check` filtered through the file's suppressions."""
        if not self.applies(ctx.path):
            return
        for finding in self.check(ctx):
            if not ctx.is_suppressed(finding.rule, finding.line):
                yield finding


class ProjectRule:
    """A cross-file analyzer over the whole scanned set.

    ``docs`` maps the path of each scanned documentation file (markdown)
    to its text, so registry-parity style rules can reach beyond code.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""

    def check_project(
        self, contexts: list[FileContext], docs: dict[str, str]
    ) -> Iterator[Finding]:
        """Yield every violation across the scanned file set."""
        raise NotImplementedError

    def run_project(
        self, contexts: list[FileContext], docs: dict[str, str]
    ) -> Iterator[Finding]:
        """:meth:`check_project` filtered through per-file suppressions."""
        by_path = {ctx.path: ctx for ctx in contexts}
        for finding in self.check_project(contexts, docs):
            ctx = by_path.get(finding.path)
            if ctx is None or not ctx.is_suppressed(finding.rule, finding.line):
                yield finding
