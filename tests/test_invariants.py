"""Repository invariants, checked over the source tree and the docs.

* Every engine named as ``engine="..."`` or ``--engine ...`` in
  README.md and ``docs/*.md`` is in the ``ENGINES`` registry, and every
  registry engine is mentioned there.
* No function under ``src/repro`` has a mutable default argument: the
  one object would be shared by every call, leaking state between
  mining runs.
* No ``except:`` under ``src/repro`` lacks an exception type: it would
  swallow ``KeyboardInterrupt`` and ``SystemExit`` mid-sweep.

The CLI's ``--engine`` choices are checked against the registry in
``test_cli.py``.
"""

import ast
import re
from pathlib import Path

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
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + node.args.kw_defaults
            found += [
                f"{path}:{default.lineno}: mutable default argument"
                for default in defaults
                if default is not None and _is_mutable(default)
            ]
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            found.append(f"{path}:{node.lineno}: bare 'except:'")
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
