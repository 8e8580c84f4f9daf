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
* ``repro.streaming`` counts with the batch kernel only through the
  thread pool (every ``f2_counts_for_period`` call sits in a function
  handed to ``map_periods``) and compares no array with a shifted slice
  of itself: the per-period compare is the kernel's alone.
* Every ``__all__`` name under ``src/repro`` is reached from a user
  entry point, or ``UNREACHED_EXPORTS`` names the shipped path it
  serves (as a test oracle or a parameter value).
* Every name a fenced ``python`` block of README.md or ``docs/*.md``
  imports from ``repro`` exists on its module.

The CLI's ``--engine`` choices are checked against the registry in
``test_cli.py``.
"""

import ast
import importlib
import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.core.convolution_miner import ENGINES

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "repro").rglob("*.py"))
STREAMING = sorted((REPO / "src" / "repro" / "streaming").glob("*.py"))
PROJECTION = REPO / "src" / "repro" / "core" / "projection.py"
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
#: User entry points: every top-level name of these modules (a package
#: covers its submodules) ...
ENTRY_MODULES = ("repro.cli", "repro.pipeline", "repro.experiments")
#: ... and every name the scripts under these directories use.
#: ``perfbench`` is here only because it still pins internal names by
#: string (ROADMAP direction 3); today it alone reaches
#: ``generate_random``.  Once its replay is gone, drop it here, and any
#: name only it reached is flagged.
ENTRY_DIRS = ("examples", "benchmarks", "perfbench")

#: ``__all__`` names no entry point reaches, each with the shipped path
#: it serves.  A name no longer exported, or reached after all, fails
#: ``TestShipOnlyWhatRuns``: the list cannot go stale.
UNREACHED_EXPORTS = {
    "__version__": "the package version attribute, equal to pyproject.toml's",
    "brute_force_table": "oracle for every miner's table in "
    "test_miners_equivalence.py",
    "weighted_convolve_direct": "oracle for weighted_convolution_witnesses "
    "in test_convolution_bigint.py::TestWitnessExtraction",
    "cartesian_candidates": "oracle for mine_patterns in test_candidates.py::"
    "TestMinePatterns::test_apriori_matches_cartesian_on_small_input",
    "pattern_support": "oracle for mine_patterns' supports in test_properties"
    ".py::test_mined_pattern_supports_recount_exactly",
    "projection": "the paper's pi_{p,l}: oracle for f2_projection in "
    "test_projection.py::TestF2::test_f2_projection_shortcut",
    "f2_projection": "oracle for f2_counts_for_period in test_projection.py::"
    "TestF2Table and for witness_keys in test_mapping.py::TestWitnessTable",
    "witness_power": "oracle for decode_witness and witness_keys in "
    "test_mapping.py",
    "parse_pattern": "inverse of PeriodicPattern.to_string, which every "
    "report prints: the round trip in test_pattern_text.py::TestParsePattern",
    "EqualWidthDiscretizer": "value for PeriodicityPipeline(discretizer=)",
    "GaussianDiscretizer": "value for PeriodicityPipeline(discretizer=)",
    "oracle_table": "oracle for every table form in test_properties.py::"
    "test_columnar_table_matches_dict_reference",
    "assert_miner_correct": "oracle for SpectralMiner in test_merge_calendar_"
    "testing.py::TestTestingHelpers; the conformance check repro.testing "
    "offers downstream miners",
    "assert_tables_equal": "the compare assert_miner_correct runs",
    "random_series": "draws assert_miner_correct's series",
}

#: ``engine="a"``, ``engine=("a"|"b")`` and ``--engine a`` mentions.
_DOC_ENGINE = re.compile(
    r"""engine\s*=\s*\(?((?:\s*\|?\s*["'`]\w+["'`])+)|--engine[= ]\s*(\w+)"""
)
_QUOTED = re.compile(r"""["'`](\w+)["'`]""")
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
#: ``from repro.x import (a, b)`` or ``from repro.x import a, b``.
_REPRO_IMPORT = re.compile(r"from\s+(repro[\w.]*)\s+import\s+(?:\(([^)]*)\)|([^\n]*))")
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


def walk(graph, starts):
    """The names of ``graph`` that ``starts`` reach through it: each name
    maps to the bare names it uses, and a bare name stands for every
    name of ``graph`` ending in it."""
    by_bare = {}
    for name in graph:
        by_bare.setdefault(name.rsplit(".", 1)[-1], []).append(name)
    seen, stack = set(starts), list(starts)
    while stack:
        for used in graph.get(stack.pop(), ()):
            for name in by_bare.get(used, []):
                if name not in seen:
                    seen.add(name)
                    stack.append(name)
    return seen


def reaches(graph, start, target):
    """Whether ``start`` calls ``target``, directly or through functions
    of ``graph`` (a bare name stands for every function of that name)."""
    return any(target in graph.get(name, ()) for name in walk(graph, [start]))


def references(node):
    """The bare names ``node`` uses: names, attributes, imported names
    and the names inside string annotations."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        annotation = getattr(sub, "annotation", None) or getattr(sub, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                found |= references(ast.parse(part.value, mode="eval"))
    return found


def unreached_exports(modules, entry_modules, entry_names):
    """``{name: modules exporting it}`` over the ``__all__`` names of
    ``modules`` (``{module: source}``) that no entry point reaches.

    The graph's nodes are top-level functions, classes and assignments,
    each using the names :func:`references` finds in it.  The walk
    starts at every node of ``entry_modules`` and every node named in
    ``entry_names``.
    """
    graph, exported = {}, {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    target.id
                    for target in (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    if isinstance(target, ast.Name)
                ]
            else:
                continue
            for name in targets:
                if name == "__all__":
                    for export in ast.literal_eval(node.value):
                        exported.setdefault(export, []).append(module)
                else:
                    graph[f"{module}.{name}"] = references(node)
    starts = [
        name for name in graph
        if name.rsplit(".", 1)[-1] in entry_names
        or any(name.startswith(entry + ".") for entry in entry_modules)
    ]
    reached = {name.rsplit(".", 1)[-1] for name in walk(graph, starts)}
    return {
        name: modules for name, modules in exported.items() if name not in reached
    }


def stale_entries(unreached, allowed):
    """Allow-list entries that are reached or not exported at all."""
    return sorted(set(allowed) - set(unreached))


def frequency_callers(graph):
    """Functions calling a ``.frequency(...)`` — the tree's per-candidate
    count, which the miners replaced with ``levelwise``."""
    return sorted(name for name, calls in graph.items() if "frequency" in calls)


def called_name(call):
    """The bare name a call is known by (``f`` of ``f()`` and ``x.f()``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def pool_kernel_calls(source, pool="map_periods", kernel="f2_counts_for_period"):
    """``(inside, outside)``: the calls of ``kernel`` in functions handed
    to ``pool`` (a lambda, or a function passed by name, looked up from
    the scope of the ``pool`` call outwards to the module) and the calls
    of it anywhere else."""
    tree = ast.parse(source)
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def scope(node):
        """The function that defines ``node``, or the module."""
        node = parents.get(node)
        while node is not None and not isinstance(node, _FUNCTIONS):
            node = parents.get(node)
        return tree if node is None else node

    defined = {
        (scope(node), node.name): node
        for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)
    }
    handed = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and called_name(call) == pool and call.args:
            task = call.args[0]
            if isinstance(task, ast.Name):
                where = scope(call)
                while (where, task.id) not in defined and where is not tree:
                    where = scope(where)
                task = defined.get((where, task.id))
            handed.append(task)

    def kernel_calls(node):
        return {
            id(call) for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) == kernel
        }
    inside = set().union(*(kernel_calls(task) for task in handed if task is not None))
    return len(inside), len(kernel_calls(tree) - inside)


def _is_slice(node):
    """Whether ``node`` is ``name[a:b]``."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Slice)
        and isinstance(node.value, ast.Name)
    )


def shifted_compares(source):
    """Functions that compare an array with a shifted slice of itself,
    ``x[a:b] == x[c:d]`` (a side may be a local name bound to such a
    slice) — the per-period compare of the batch count kernel."""
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, _FUNCTIONS):
            continue
        slices = {
            node.targets[0].id: node.value
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_slice(node.value)
        }
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Compare)
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            ):
                continue
            sides = [
                slices.get(side.id, side) if isinstance(side, ast.Name) else side
                for side in (node.left, node.comparators[0])
            ]
            if all(map(_is_slice, sides)) and sides[0].value.id == sides[1].value.id:
                found.add(function.name)
    return sorted(found)


def doc_imports(text):
    """``(module, name)`` for every name a fenced ``python`` block of the
    markdown ``text`` imports from ``repro`` (``#`` comments dropped
    first: some hold a parenthesis)."""
    found = []
    for block in _PYTHON_BLOCK.findall(text):
        code = re.sub(r"#[^\n]*", "", block)
        for module, parenthesised, bare in _REPRO_IMPORT.findall(code):
            for item in (parenthesised or bare).split(","):
                name = item.split(" as ")[0].strip(" .>\n")
                if name:
                    found.append((module, name))
    return found


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


class TestOneCountKernel:
    sources = [path.read_text(encoding="utf-8") for path in STREAMING]

    def test_streaming_reaches_the_kernel_through_map_periods(self):
        calls = [pool_kernel_calls(source) for source in self.sources]
        assert sum(inside for inside, _ in calls) >= 1
        assert sum(outside for _, outside in calls) == 0

    def test_streaming_defines_no_per_period_compare(self):
        found = [name for source in self.sources for name in shifted_compares(source)]
        assert found == []

    def test_detectors_fire(self):
        kernel = PROJECTION.read_text(encoding="utf-8")
        assert shifted_compares(kernel) == ["f2_counts_for_period"]
        source = (
            "def serial(codes, p):\n"
            "    return f2_counts_for_period(codes, 4, p)\n"
            "def pooled(codes):\n"
            "    def count(p):\n"
            "        return f2_counts_for_period(codes, 4, p)\n"
            "    return map_periods(count, 9), map_periods(lambda p: p, 9)\n"
            "def own(codes, p):\n"
            "    head = codes[:-p]\n"
            "    return head == codes[p:], codes[:3] == codes[3]\n"
        )
        assert pool_kernel_calls(source) == (1, 1)
        assert shifted_compares(source) == ["own"]
        # Each pool call hands over the ``count`` of its own function.
        source += (
            "def pooled_again(codes):\n"
            "    def count(p):\n"
            "        return f2_counts_for_period(codes, 4, p)\n"
            "    return map_periods(count, 9)\n"
        )
        assert pool_kernel_calls(source) == (2, 1)

    def test_tasks_resolve_from_the_pool_call_outwards(self):
        source = (
            "def task(p):\n"
            "    return f2_counts_for_period(codes, 4, p)\n"
            "def outer(codes):\n"
            "    def task(p):\n"
            "        return p\n"
            "    def inner():\n"
            "        return map_periods(task, 9)\n"
            "    return inner()\n"
        )
        # inner's pool runs outer's task, not the module's.
        assert pool_kernel_calls(source) == (0, 1)
        source += "def pooled():\n    return map_periods(task, 9)\n"
        assert pool_kernel_calls(source) == (1, 0)


def entry_point_names():
    """Every bare name the scripts under ``ENTRY_DIRS`` use."""
    return set().union(*(
        references(ast.parse(path.read_text(encoding="utf-8")))
        for folder in ENTRY_DIRS
        for path in sorted((REPO / folder).rglob("*.py"))
    ))


class TestShipOnlyWhatRuns:
    unreached = unreached_exports(
        {module_name(path): path.read_text(encoding="utf-8") for path in SOURCES},
        ENTRY_MODULES,
        entry_point_names(),
    )

    def test_every_export_is_reached_or_allowed(self):
        orphans = {
            name: modules
            for name, modules in self.unreached.items()
            if name not in UNREACHED_EXPORTS
        }
        assert not orphans, (
            f"exported, but no entry point reaches them: {orphans}; give each a "
            "user path, delete it, or name the shipped path it serves in "
            "UNREACHED_EXPORTS"
        )

    def test_allow_list_is_current(self):
        assert stale_entries(self.unreached, UNREACHED_EXPORTS) == []
        assert all(UNREACHED_EXPORTS.values()), "each entry needs its reason"

    # A synthetic package: ``pkg.cli`` is the entry module.
    PACKAGE = {
        "pkg.cli": (
            "from .core import LIMIT, run\n"
            "def main(limit=LIMIT) -> 'Report':\n"
            "    return run(limit)\n"
        ),
        "pkg.core": (
            "__all__ = ['LIMIT', 'Report', 'run', 'helper', 'scripted', "
            "'orphan', 'even', 'odd']\n"
            "LIMIT: int = 3\n"
            "class Report: ...\n"
            "def run(limit):\n"
            "    return np.helper(limit)\n"
            "def helper(limit): ...\n"
            "def scripted(): ...\n"
            "def orphan():\n"
            "    return run(LIMIT)\n"
            "def even(n):\n"
            "    return n == 0 or odd(n - 1)\n"
            "def odd(n):\n"
            "    return n != 0 and even(n - 1)\n"
        ),
        "pkg": "from .core import orphan\n__all__ = ['orphan']\n",
    }

    def test_orphan_fires(self):
        unreached = unreached_exports(self.PACKAGE, ("pkg.cli",), {"scripted"})
        assert unreached.pop("orphan") == ["pkg.core", "pkg"]
        assert sorted(unreached) == ["even", "odd"]

    def test_orphan_chain_fires(self):
        # even and odd reach each other but nothing reaches them ...
        assert sorted(unreached_exports(self.PACKAGE, ("pkg.cli",), {"orphan"})) == [
            "even", "odd", "scripted",
        ]
        # ... until a script uses one of them.
        assert sorted(unreached_exports(self.PACKAGE, ("pkg.cli",), {"odd"})) == [
            "orphan", "scripted",
        ]

    def test_stale_allow_list_entry_fires(self):
        unreached = unreached_exports(self.PACKAGE, ("pkg.cli",), set())
        allowed = {
            "orphan": "an oracle", "even": "a", "odd": "b", "scripted": "c",
            "run": "reached after all", "gone": "not exported",
        }
        assert stale_entries(unreached, allowed) == ["gone", "run"]


def resolves(module, name):
    """Whether ``from module import name`` would succeed."""
    try:
        return hasattr(importlib.import_module(module), name)
    except ModuleNotFoundError:
        return False


class TestDocImports:
    def test_every_documented_import_resolves(self):
        missing = [
            f"{doc.name}: from {module} import {name}"
            for doc in DOCS
            for module, name in doc_imports(doc.read_text(encoding="utf-8"))
            if not resolves(module, name)
        ]
        assert not missing, "\n".join(missing)

    def test_reads_every_import_form(self):
        text = (
            "```python\n"
            ">>> from repro.core import SymbolSequence, projection\n"
            "from repro.data import (\n"
            "    Gone,  # numeric traces (for the pipeline)\n"
            "    QuantileDiscretizer as Q,\n"
            ")\n"
            "import repro\n"
            "```\n"
            "```bash\n"
            "from repro.gone import nothing\n"
            "```\n"
        )
        found = doc_imports(text)
        assert found == [
            ("repro.core", "SymbolSequence"), ("repro.core", "projection"),
            ("repro.data", "Gone"), ("repro.data", "QuantileDiscretizer"),
        ]
        assert [resolves(*pair) for pair in found] == [True, True, False, True]
        assert not resolves("repro.gone", "nothing")
