"""Repository invariants, checked over the source tree and the docs.

* Every engine named as ``engine="..."`` or ``--engine ...`` in
  README.md and ``docs/*.md`` is in the ``ENGINES`` registry, and every
  registry engine is mentioned there.
* No function under ``src/repro`` has a mutable default argument: the
  one object would be shared by every call, leaking state between
  mining runs.
* No ``except:`` under ``src/repro`` lacks an exception type: it would
  swallow ``KeyboardInterrupt`` and ``SystemExit`` mid-sweep.
* Every function in a strict module (all of ``src/repro`` except the
  packages relaxed in ``[[tool.mypy.overrides]]``) annotates every
  parameter but ``self``/``cls`` and its return type — the
  ``disallow_untyped_defs`` half of the typing policy, checked without
  mypy.
* Every level-wise miner under ``src/repro`` reaches the one Apriori
  search, ``levelwise``, and no function counts a candidate with
  ``MaxSubpatternTree.frequency``.

The CLI's ``--engine`` choices are checked against the registry in
``test_cli.py``.
"""

import ast
import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.core.convolution_miner import ENGINES

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "repro").rglob("*.py"))
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: ``engine="a"``, ``engine=("a"|"b")`` and ``--engine a`` mentions.
_DOC_ENGINE = re.compile(
    r"""engine\s*=\s*\(?((?:\s*\|?\s*["'`]\w+["'`])+)|--engine[= ]\s*(\w+)"""
)
_QUOTED = re.compile(r"""["'`](\w+)["'`]""")
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: The miners that must run their level-wise search through ``levelwise``.
_LEVELWISE_CALLERS = (
    "_mine_period",
    "HanPartialMiner.mine",
    "MaxSubpatternMiner.mine_tree",
    "frequent_itemsets",
)


def relaxed_modules(pyproject):
    """The module patterns ``[[tool.mypy.overrides]]`` exempts."""
    overrides = pyproject.split("[[tool.mypy.overrides]]", 1)[1]
    listing = re.search(r"module\s*=\s*\[(.*?)\]", overrides, re.S).group(1)
    return re.findall(r'"([\w.*]+)"', listing)


def module_name(path):
    """``src/repro/core/mapping.py`` -> ``repro.core.mapping``."""
    parts = path.relative_to(REPO / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def is_relaxed(module, patterns):
    """mypy's matching: ``a.b.*`` covers ``a.b`` and every submodule."""
    return any(
        fnmatchcase(module, pattern)
        or (pattern.endswith(".*") and module == pattern[:-2])
        for pattern in patterns
    )


_RELAXED = relaxed_modules((REPO / "pyproject.toml").read_text(encoding="utf-8"))
STRICT_SOURCES = [p for p in SOURCES if not is_relaxed(module_name(p), _RELAXED)]


def doc_engine_names(text):
    """Every engine name a markdown text passes as an engine."""
    names = set()
    for quoted, flag in _DOC_ENGINE.findall(text):
        names.update(_QUOTED.findall(quoted))
        if flag:
            names.add(flag)
    return names


def _is_mutable(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in _MUTABLE_CALLS


def hygiene_violations(source, path="<string>"):
    """``path:line`` messages for mutable defaults and bare excepts."""
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            defaults = node.args.defaults + node.args.kw_defaults
            found += [
                f"{path}:{default.lineno}: mutable default argument"
                for default in defaults
                if default is not None and _is_mutable(default)
            ]
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            found.append(f"{path}:{node.lineno}: bare 'except:'")
    return found


def unannotated_signatures(source, path="<string>"):
    """``path:line`` messages for functions missing an annotation.

    Every parameter needs one (``*args`` and ``**kwargs`` too; a method's
    leading ``self``/``cls`` is exempt), and so does the return type.
    """
    tree = ast.parse(source, str(path))
    methods = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, _FUNCTIONS)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        args = node.args
        named = args.posonlyargs + args.args
        if id(node) in methods and named and named[0].arg in ("self", "cls"):
            named = named[1:]
        missing = [arg.arg for arg in named + args.kwonlyargs
                   if arg.annotation is None]
        for stars, arg in (("*", args.vararg), ("**", args.kwarg)):
            if arg is not None and arg.annotation is None:
                missing.append(stars + arg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            found.append(
                f"{path}:{node.lineno}: {node.name}() lacks annotations "
                f"for {', '.join(missing)}"
            )
    return found


def call_graph(sources):
    """``{qualified name: names it calls}`` over module-level functions
    and methods (``Class.method``); a call is known by its bare name."""
    graph = {}
    for source in sources:
        tree = ast.parse(source)
        scopes = [
            (node, node.name) for node in tree.body if isinstance(node, _FUNCTIONS)
        ]
        scopes += [
            (stmt, f"{node.name}.{stmt.name}")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, _FUNCTIONS)
        ]
        for function, name in scopes:
            graph.setdefault(name, set()).update(
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(function)
                if isinstance(call, ast.Call)
                and isinstance(call.func, (ast.Name, ast.Attribute))
            )
    return graph


def reaches(graph, start, target):
    """Whether ``start`` calls ``target``, directly or through functions
    of ``graph`` (a bare name stands for every function of that name)."""
    by_bare = {}
    for name in graph:
        by_bare.setdefault(name.rsplit(".", 1)[-1], []).append(name)
    seen, stack = {start}, [start]
    while stack:
        for called in graph.get(stack.pop(), ()):
            if called == target:
                return True
            for name in by_bare.get(called, []):
                if name not in seen:
                    seen.add(name)
                    stack.append(name)
    return False


def frequency_callers(graph):
    """Functions calling a ``.frequency(...)`` — the tree's per-candidate
    count, which the miners replaced with ``levelwise``."""
    return sorted(name for name, calls in graph.items() if "frequency" in calls)


def undocumented_engines(text):
    """Registry engines never mentioned in ``text``."""
    return [e for e in ENGINES if not re.search(rf"\b{e}\b", text)]


class TestEngineDocs:
    def test_docs_name_only_registry_engines(self):
        unknown = {
            f"{doc.name}: {name}"
            for doc in DOCS
            for name in doc_engine_names(doc.read_text(encoding="utf-8"))
            if name not in ENGINES
        }
        assert not unknown, f"not in ENGINES {ENGINES}: {sorted(unknown)}"

    def test_every_registry_engine_is_documented(self):
        text = "\n".join(doc.read_text(encoding="utf-8") for doc in DOCS)
        missing = undocumented_engines(text)
        assert not missing, f"engines never mentioned in the docs: {missing}"

    def test_unknown_engine_in_docs_fires(self):
        text = (
            'mine(T, engine="parallel")\n'
            "`engine=('bitand'|\"kronecker\" | `warp`)`\n"
            "repro mine FILE --engine quantum --workers 2\n"
            "repro mine FILE --engine=gpu\n"
            "the `--engine` choices derive from it\n"
        )
        assert doc_engine_names(text) == {
            "parallel", "bitand", "kronecker", "warp", "quantum", "gpu"
        }

    def test_registry_engine_missing_from_docs_fires(self):
        assert undocumented_engines("bitand and parallel; kroneckerish") == [
            "kronecker"
        ]


class TestLibraryHygiene:
    def test_no_mutable_defaults_or_bare_excepts_in_src(self):
        found = [
            message
            for path in SOURCES
            for message in hygiene_violations(
                path.read_text(encoding="utf-8"), path.relative_to(REPO)
            )
        ]
        assert not found, "\n".join(found)

    def test_mutable_default_fires(self):
        source = (
            "def f(a=[], b={}, c={1}, d=[i for i in x], e=dict()): ...\n"
            "async def g(a=collections.defaultdict(list)): ...\n"
            "h = lambda a=bytearray(): a\n"
        )
        assert len(hygiene_violations(source)) == 7

    def test_mutable_kwonly_default_fires(self):
        (message,) = hygiene_violations("def f(*, x=list()): ...", "m.py")
        assert message == "m.py:1: mutable default argument"

    def test_bare_except_fires(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert hygiene_violations(source, "m.py") == ["m.py:3: bare 'except:'"]

    def test_typed_except_and_none_default_are_clean(self):
        source = (
            "def f(x=None, y=(), *, z=frozenset(), w=0):\n"
            "    try:\n        pass\n"
            "    except (OSError, ValueError):\n        pass\n"
        )
        assert hygiene_violations(source) == []


class TestAnnotations:
    def test_strict_modules_are_fully_annotated(self):
        found = [
            message
            for path in STRICT_SOURCES
            for message in unannotated_signatures(
                path.read_text(encoding="utf-8"), path.relative_to(REPO)
            )
        ]
        assert not found, "\n".join(found)

    def test_scan_covers_every_strict_module(self):
        scanned = {module_name(path) for path in STRICT_SOURCES}
        assert {
            "repro", "repro.__main__", "repro.cli", "repro.pipeline",
            "repro.core.mapping", "repro.convolution.bigint",
            "repro.streaming", "repro.streaming.online",
        } <= scanned
        assert not any(
            name.startswith(("repro.analysis", "repro.baselines"))
            or name == "repro.testing"
            for name in scanned
        )

    def test_relaxed_modules_follow_mypy_matching(self):
        patterns = ["repro.data.*", "repro.testing"]
        assert is_relaxed("repro.data", patterns)
        assert is_relaxed("repro.data.power", patterns)
        assert is_relaxed("repro.testing", patterns)
        assert not is_relaxed("repro.dataset", patterns)
        assert not is_relaxed("repro.core.sequence", patterns)

    def test_unannotated_parameter_and_return_fire(self):
        (message,) = unannotated_signatures("def f(x):\n    return x\n", "m.py")
        assert message == "m.py:1: f() lacks annotations for x, return"

    def test_missing_return_fires(self):
        (message,) = unannotated_signatures("def f(x: int):\n    pass\n", "m.py")
        assert message.endswith("f() lacks annotations for return")

    def test_unannotated_varargs_fire(self):
        (message,) = unannotated_signatures("def f(*args, **kw) -> None: ...\n")
        assert message.endswith("lacks annotations for *args, **kw")

    def test_method_self_exempt_but_not_params(self):
        source = (
            "class C:\n"
            "    def ok(self) -> None: ...\n"
            "    @classmethod\n"
            "    def make(cls, y, *, z: int) -> None: ...\n"
            "def free(self) -> None: ...\n"
        )
        assert sorted(unannotated_signatures(source, "m.py")) == [
            "m.py:4: make() lacks annotations for y",
            "m.py:5: free() lacks annotations for self",
        ]

    def test_nested_and_async_functions_are_checked(self):
        source = (
            "def outer() -> None:\n"
            "    def inner(q) -> int: ...\n"
            "async def run(): ...\n"
        )
        assert len(unannotated_signatures(source)) == 2

    def test_fully_annotated_is_clean(self):
        source = (
            "def f(x: int, /, y: str = '', *a: str, k: bool, **kw: float) -> int:\n"
            "    return x\n"
            "g = lambda v: v\n"
        )
        assert unannotated_signatures(source) == []

    def test_unparsable_source_names_its_path(self):
        with pytest.raises(SyntaxError) as error:
            unannotated_signatures("def f(:\n", "broken.py")
        assert error.value.filename == "broken.py"
        assert error.value.lineno == 1


class TestOneLevelwiseSearch:
    graph = call_graph(path.read_text(encoding="utf-8") for path in SOURCES)

    @pytest.mark.parametrize("caller", _LEVELWISE_CALLERS)
    def test_miner_reaches_levelwise(self, caller):
        assert caller in self.graph, f"{caller} is not defined under src/repro"
        assert reaches(self.graph, caller, "levelwise")

    def test_no_function_counts_with_tree_frequency(self):
        assert frequency_callers(self.graph) == []

    def test_hand_written_loop_fires(self):
        graph = call_graph([
            "def levelwise(items): ...\n"
            "def _search(items):\n    return levelwise(items)\n"
            "class Miner:\n"
            "    def mine(self, rows):\n        return _search(rows)\n"
            "    def mine_tree(self, tree):\n"
            "        return [c for c in tree.root if tree.frequency(c) > 1]\n"
        ])
        assert reaches(graph, "Miner.mine", "levelwise")
        assert not reaches(graph, "Miner.mine_tree", "levelwise")
        assert frequency_callers(graph) == ["Miner.mine_tree"]
