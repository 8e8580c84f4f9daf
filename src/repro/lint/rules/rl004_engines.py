"""RL004 — the engine registry is the single source of truth.

:data:`repro.core.convolution_miner.ENGINES` names the exact engines.
The CLI's ``--engine`` choices, the ``Engine`` ``Literal`` alias, every
``engine="..."`` literal in code/tests, and the engine names quoted in
the documentation must all agree with it — a drifted literal either
advertises an engine that raises ``ValueError`` at runtime or hides one
from users and from the cross-engine property tests.

Checks, in both directions:

* the ``Engine = Literal[...]`` alias next to the registry matches it
  exactly;
* any literal ``choices=`` tuple on an ``--engine`` argparse option
  matches the registry (a derived expression such as ``choices=ENGINES``
  always passes — that is the recommended spelling), and a literal
  ``default=`` is a registry member;
* every ``engine=<string>`` keyword argument in scanned Python files
  names a registry engine — except inside ``with pytest.raises(...)``
  bodies, where invalid names are the point of the test;
* every ``engine="..."`` / ``--engine ...`` mention in scanned markdown
  names a registry engine;
* reverse direction: when tests (resp. docs) are part of the scanned
  set, every registry engine appears in at least one test ``engine=``
  literal (resp. somewhere in the documentation text).

The parallel engine's fault-handling registries are held to the same
standard.  :data:`repro.parallel.engine.FAULT_POLICIES` names the
``on_fault`` policies and :data:`~repro.parallel.engine.FALLBACK_CHAIN`
the backend degradation order; when ``engine.py`` is in the scanned
set:

* literal ``choices=`` / ``default=`` on an ``--on-fault`` argparse
  option must match ``FAULT_POLICIES`` (spell it
  ``choices=FAULT_POLICIES``);
* every ``on_fault=<string>`` keyword argument and every
  ``on_fault="..."`` / ``--on-fault ...`` mention in the docs must
  name a registry policy (``pytest.raises`` bodies exempt);
* reverse direction: every policy appears in the docs and in at least
  one test ``on_fault=`` literal, and every backend of the fallback
  chain is mentioned somewhere in the documentation.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from ..asttools import line_in_ranges, pytest_raises_ranges
from ..framework import FileContext, Finding, ProjectRule

__all__ = ["EngineRegistryParity"]

#: module holding the canonical registry.
_REGISTRY_FILE = "convolution_miner.py"
_REGISTRY_NAMES = ("ENGINES",)

#: module holding the fault-handling registries of the parallel engine.
_POLICY_FILE = "engine.py"
_POLICY_NAMES = ("FAULT_POLICIES",)
_CHAIN_NAMES = ("FALLBACK_CHAIN",)

_DOC_ENGINE = re.compile(r"""engine\s*=\s*\(?["'`]([A-Za-z_]+)["'`]""")
_DOC_ENGINE_EXTRA = re.compile(r"""["'](\w+)["']\s*\|""")
_DOC_CLI_ENGINE = re.compile(r"--engine[= ]\s*([A-Za-z_]+)")
_DOC_POLICY = re.compile(r"""on_fault\s*=\s*\(?["'`]([A-Za-z_]+)["'`]""")
_DOC_CLI_POLICY = re.compile(r"--on-fault[= ]\s*([A-Za-z_]+)")


def _registry_from(
    ctx: FileContext, names: tuple[str, ...] = _REGISTRY_NAMES
) -> tuple[list[str], ast.AST] | None:
    """A module-level ``names`` tuple literal of ``ctx``, if present."""
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            targets: list[ast.expr] = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in names
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                names = [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
                return names, node
    return None


def _literal_alias(ctx: FileContext) -> tuple[set[str], ast.AST] | None:
    """The ``Engine = Literal[...]`` members of the registry module."""
    for node in ctx.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "Engine"
            and isinstance(node.value, ast.Subscript)
        ):
            members = {
                element.value
                for element in ast.walk(node.value.slice)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }
            return members, node
    return None


class EngineRegistryParity(ProjectRule):
    """Keep miner, CLI, docs, and tests in engine-registry lockstep."""

    id = "RL004"
    name = "engine-registry parity"
    rationale = (
        "a drifted engine literal advertises an engine that raises at "
        "runtime or hides one from the cross-engine property tests"
    )

    def check_project(
        self, contexts: list[FileContext], docs: dict[str, str]
    ) -> Iterator[Finding]:
        yield from self._check_engine_registry(contexts, docs)
        yield from self._check_fault_registries(contexts, docs)

    def _check_engine_registry(
        self, contexts: list[FileContext], docs: dict[str, str]
    ) -> Iterator[Finding]:
        registry_ctx = next(
            (
                ctx
                for ctx in contexts
                if Path(ctx.path).name == _REGISTRY_FILE
                and _registry_from(ctx) is not None
            ),
            None,
        )
        if registry_ctx is None:
            return  # registry not in the scanned set; nothing to compare
        found = _registry_from(registry_ctx)
        assert found is not None
        engines, _ = found
        known = set(engines)

        alias = _literal_alias(registry_ctx)
        if alias is not None:
            members, node = alias
            if members != known:
                yield registry_ctx.finding(
                    self,
                    node,
                    f"Engine Literal members {sorted(members)} do not match "
                    f"the ENGINES registry {sorted(known)}",
                )

        tested: set[str] = set()
        any_tests = False
        for ctx in contexts:
            is_test = self._is_test_path(ctx.path)
            any_tests = any_tests or is_test
            raises = pytest_raises_ranges(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_engine_kwargs(
                    ctx, node, known, raises, is_test, tested
                )
                yield from self._check_argparse(ctx, node, known)

        for path, text in docs.items():
            yield from self._check_doc(path, text, known)
        if docs:
            text_all = "\n".join(docs.values())
            for engine in engines:
                if not re.search(rf"\b{re.escape(engine)}\b", text_all):
                    yield Finding(
                        path=registry_ctx.path,
                        line=1,
                        col=1,
                        rule=self.id,
                        message=(
                            f"engine {engine!r} is in the registry but "
                            "never mentioned in the scanned documentation"
                        ),
                    )
        if any_tests:
            for engine in engines:
                if engine not in tested:
                    yield Finding(
                        path=registry_ctx.path,
                        line=1,
                        col=1,
                        rule=self.id,
                        message=(
                            f"engine {engine!r} is in the registry but no "
                            "scanned test exercises engine=\""
                            f"{engine}\""
                        ),
                    )

    def _check_fault_registries(
        self, contexts: list[FileContext], docs: dict[str, str]
    ) -> Iterator[Finding]:
        policy_ctx = next(
            (
                ctx
                for ctx in contexts
                if Path(ctx.path).name == _POLICY_FILE
                and _registry_from(ctx, _POLICY_NAMES) is not None
            ),
            None,
        )
        if policy_ctx is None:
            return  # parallel engine not in the scanned set
        found = _registry_from(policy_ctx, _POLICY_NAMES)
        assert found is not None
        policies, _ = found
        known = set(policies)

        tested: set[str] = set()
        any_tests = False
        for ctx in contexts:
            is_test = self._is_test_path(ctx.path)
            any_tests = any_tests or is_test
            raises = pytest_raises_ranges(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_policy_kwargs(
                    ctx, node, known, raises, is_test, tested
                )
                yield from self._check_policy_argparse(ctx, node, known)

        for path, text in docs.items():
            yield from self._check_policy_doc(path, text, known)
        if docs:
            text_all = "\n".join(docs.values())
            for policy in policies:
                if not re.search(rf"\b{re.escape(policy)}\b", text_all):
                    yield Finding(
                        path=policy_ctx.path,
                        line=1,
                        col=1,
                        rule=self.id,
                        message=(
                            f"fault policy {policy!r} is in FAULT_POLICIES "
                            "but never mentioned in the scanned documentation"
                        ),
                    )
            chain = _registry_from(policy_ctx, _CHAIN_NAMES)
            if chain is not None:
                for backend in chain[0]:
                    if not re.search(rf"\b{re.escape(backend)}\b", text_all):
                        yield Finding(
                            path=policy_ctx.path,
                            line=1,
                            col=1,
                            rule=self.id,
                            message=(
                                f"fallback backend {backend!r} is in "
                                "FALLBACK_CHAIN but never mentioned in the "
                                "scanned documentation"
                            ),
                        )
        if any_tests:
            for policy in policies:
                if policy not in tested:
                    yield Finding(
                        path=policy_ctx.path,
                        line=1,
                        col=1,
                        rule=self.id,
                        message=(
                            f"fault policy {policy!r} is in FAULT_POLICIES "
                            "but no scanned test exercises on_fault=\""
                            f"{policy}\""
                        ),
                    )

    def _check_policy_kwargs(
        self,
        ctx: FileContext,
        node: ast.Call,
        known: set[str],
        raises: list[tuple[int, int]],
        is_test: bool,
        tested: set[str],
    ) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg != "on_fault":
                continue
            value = keyword.value
            if not (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                continue
            if value.value in known:
                if is_test:
                    tested.add(value.value)
                continue
            if line_in_ranges(value.lineno, raises):
                continue  # negative test: the invalid policy is the point
            yield ctx.finding(
                self,
                value,
                f"fault policy {value.value!r} is not in the FAULT_POLICIES "
                f"registry ({sorted(known)})",
            )

    def _check_policy_argparse(
        self, ctx: FileContext, node: ast.Call, known: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
            return
        if not (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "--on-fault"
        ):
            return
        for keyword in node.keywords:
            if keyword.arg == "choices" and isinstance(
                keyword.value, (ast.Tuple, ast.List, ast.Set)
            ):
                literal = {
                    element.value
                    for element in keyword.value.elts
                    if isinstance(element, ast.Constant)
                }
                if literal != known:
                    yield ctx.finding(
                        self,
                        keyword.value,
                        "--on-fault choices are hand-listed and drift from "
                        f"the FAULT_POLICIES registry ({sorted(known)}); "
                        "derive them with choices=FAULT_POLICIES",
                    )
            elif keyword.arg == "default" and isinstance(
                keyword.value, ast.Constant
            ):
                if (
                    isinstance(keyword.value.value, str)
                    and keyword.value.value not in known
                ):
                    yield ctx.finding(
                        self,
                        keyword.value,
                        f"--on-fault default {keyword.value.value!r} is not "
                        "in the FAULT_POLICIES registry",
                    )

    def _check_policy_doc(
        self, path: str, text: str, known: set[str]
    ) -> Iterator[Finding]:
        for lineno, line in enumerate(text.splitlines(), start=1):
            mentioned = set(_DOC_POLICY.findall(line))
            mentioned |= set(_DOC_CLI_POLICY.findall(line))
            for name in sorted(mentioned - known):
                yield Finding(
                    path=path,
                    line=lineno,
                    col=1,
                    rule=self.id,
                    message=(
                        f"documentation names fault policy {name!r}, which "
                        "is not in the FAULT_POLICIES registry "
                        f"({sorted(known)})"
                    ),
                )

    @staticmethod
    def _is_test_path(path: str) -> bool:
        parts = Path(path).parts
        return "tests" in parts or Path(path).name.startswith("test_")

    def _check_engine_kwargs(
        self,
        ctx: FileContext,
        node: ast.Call,
        known: set[str],
        raises: list[tuple[int, int]],
        is_test: bool,
        tested: set[str],
    ) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg != "engine":
                continue
            value = keyword.value
            if not (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                continue
            if value.value in known:
                if is_test:
                    tested.add(value.value)
                continue
            if line_in_ranges(value.lineno, raises):
                continue  # negative test: the invalid name is the point
            yield ctx.finding(
                self,
                value,
                f"engine {value.value!r} is not in the ENGINES registry "
                f"({sorted(known)})",
            )

    def _check_argparse(
        self, ctx: FileContext, node: ast.Call, known: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
            return
        if not (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "--engine"
        ):
            return
        for keyword in node.keywords:
            if keyword.arg == "choices" and isinstance(
                keyword.value, (ast.Tuple, ast.List, ast.Set)
            ):
                literal = {
                    element.value
                    for element in keyword.value.elts
                    if isinstance(element, ast.Constant)
                }
                if literal != known:
                    yield ctx.finding(
                        self,
                        keyword.value,
                        "--engine choices are hand-listed and drift from "
                        f"the ENGINES registry ({sorted(known)}); derive "
                        "them with choices=ENGINES",
                    )
            elif keyword.arg == "default" and isinstance(
                keyword.value, ast.Constant
            ):
                if (
                    isinstance(keyword.value.value, str)
                    and keyword.value.value not in known
                ):
                    yield ctx.finding(
                        self,
                        keyword.value,
                        f"--engine default {keyword.value.value!r} is not "
                        "in the ENGINES registry",
                    )

    def _check_doc(
        self, path: str, text: str, known: set[str]
    ) -> Iterator[Finding]:
        for lineno, line in enumerate(text.splitlines(), start=1):
            mentioned = set(_DOC_ENGINE.findall(line))
            if "engine" in line:
                mentioned |= set(_DOC_ENGINE_EXTRA.findall(line))
                mentioned |= set(_DOC_CLI_ENGINE.findall(line))
            for name in sorted(mentioned - known):
                yield Finding(
                    path=path,
                    line=lineno,
                    col=1,
                    rule=self.id,
                    message=(
                        f"documentation names engine {name!r}, which is "
                        f"not in the ENGINES registry ({sorted(known)})"
                    ),
                )
