"""RL001 — packed-word arithmetic must stay in ``uint64``.

The exact engines evaluate the paper's convolution components as
``X & (X >> sigma*p)`` over packed ``uint64`` word arrays
(:mod:`repro.convolution.bitops`).  Mixing such an array with an
untyped Python ``int`` is the classic silent-corruption footgun: numpy
promotes ``uint64 <op> int`` to ``float64`` or ``object`` depending on
version and value, which either rounds 64-bit words or falls back to
Python bigints — and either way the ``F2`` witness counts behind the
paper's Definition 1 threshold come out wrong without any exception.

The rule tracks, per function scope, which names are known to hold
``uint64`` data (cast via ``np.uint64``, created with
``dtype=np.uint64``, returned by the packed-word kernels, or derived
through shape-preserving helpers like ``zeros_like``) and flags:

* any arithmetic/bitwise ``BinOp`` combining a tracked ``uint64``
  operand with a bare ``int`` literal;
* a shift (``<<``/``>>``) of a tracked ``uint64`` operand by anything
  not itself known to be ``uint64`` (wrap the amount in
  ``np.uint64(...)``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..asttools import call_name, dotted_name, is_int_literal
from ..framework import FileContext, Finding, Rule

__all__ = ["Uint64Safety"]

#: packed-word kernels whose return value is a uint64 array.
_UINT64_PRODUCERS = frozenset({"pack_positions"})

#: shape-preserving helpers that keep the dtype of their first argument.
_PASSTHROUGH = frozenset(
    {"zeros_like", "empty_like", "ones_like", "copy", "abs", "copyto"}
)

_BIT_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
_SHIFT_OPS = (ast.LShift, ast.RShift)


def _is_uint64_dtype_node(node: ast.AST) -> bool:
    """``np.uint64`` / ``uint64`` / ``"uint64"`` used as a dtype value."""
    name = dotted_name(node)
    if name is not None:
        return name.rsplit(".", 1)[-1] == "uint64"
    return isinstance(node, ast.Constant) and node.value == "uint64"


class _ScopeTracker:
    """Names known to hold uint64 data within one function/module scope."""

    def __init__(self, inherited: frozenset[str] = frozenset()) -> None:
        self.names: set[str] = set(inherited)

    def is_uint64(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            return self.is_uint64(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return self.is_uint64(node.operand)
        if isinstance(node, ast.BinOp):
            return self.is_uint64(node.left) and self.is_uint64(node.right)
        if isinstance(node, ast.Call):
            return self._call_is_uint64(node)
        return False

    def _call_is_uint64(self, node: ast.Call) -> bool:
        name = call_name(node)
        if name == "uint64":
            return True
        if name == "astype" and node.args:
            return _is_uint64_dtype_node(node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "dtype" and _is_uint64_dtype_node(keyword.value):
                return True
        if name in _UINT64_PRODUCERS:
            return True
        if name in _PASSTHROUGH and node.args:
            return self.is_uint64(node.args[0])
        return False

    def assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self.is_uint64(value):
                self.names.add(target.id)
            else:
                self.names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpacking loses the inference; drop every name.
            for element in target.elts:
                self.assign(element, ast.Constant(value=None))


class Uint64Safety(Rule):
    """Flag packed-word arithmetic that can leave ``uint64``."""

    id = "RL001"
    name = "uint64-dtype safety"
    rationale = (
        "uint64 <op> untyped int promotes to float64/object and silently "
        "corrupts the F2 witness counts (paper Def. 1)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_scope = _ScopeTracker()
        yield from self._check_body(ctx, ctx.tree.body, module_scope)

    def _check_body(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        scope: _ScopeTracker,
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._check_stmt(ctx, stmt, scope)

    def _check_stmt(
        self, ctx: FileContext, stmt: ast.stmt, scope: _ScopeTracker
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _ScopeTracker(frozenset(scope.names))
            yield from self._check_body(ctx, stmt.body, inner)
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._check_body(ctx, stmt.body, _ScopeTracker())
            return
        if isinstance(
            stmt,
            (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith,
             ast.Try),
        ):
            # Scan only the header expressions here; the bodies are
            # recursed into so the scope keeps evolving statement by
            # statement (and nested defs still open fresh scopes).
            for header in self._header_exprs(stmt):
                yield from self._scan_expr(ctx, header, scope)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                scope.assign(stmt.target, ast.Constant(value=None))
            for field in ("body", "orelse", "finalbody"):
                inner_body = getattr(stmt, field, None)
                if inner_body:
                    yield from self._check_body(ctx, inner_body, scope)
            for handler in getattr(stmt, "handlers", []):
                yield from self._check_body(ctx, handler.body, scope)
            return
        # Simple statement: scan its expressions, then update the scope
        # afterwards so `x = x & 3` still flags against the old binding.
        if isinstance(stmt, ast.AugAssign):
            yield from self._check_augassign(ctx, stmt, scope)
        yield from self._scan_expr(ctx, stmt, scope)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                scope.assign(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            scope.assign(stmt.target, stmt.value)

    @staticmethod
    def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        return []

    def _scan_expr(
        self, ctx: FileContext, root: ast.AST, scope: _ScopeTracker
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, ast.BinOp):
                yield from self._check_binop(ctx, node, scope)

    def _check_binop(
        self, ctx: FileContext, node: ast.BinOp, scope: _ScopeTracker
    ) -> Iterator[Finding]:
        if not isinstance(node.op, _BIT_OPS + _ARITH_OPS):
            return
        left_u64 = scope.is_uint64(node.left)
        right_u64 = scope.is_uint64(node.right)
        if left_u64 == right_u64:
            return
        other = node.right if left_u64 else node.left
        if is_int_literal(other):
            yield ctx.finding(
                self,
                node,
                "uint64 packed-word operand mixed with an untyped int "
                "literal; wrap it in np.uint64(...)",
            )
        elif isinstance(node.op, _SHIFT_OPS) and left_u64:
            yield ctx.finding(
                self,
                node,
                "shift amount applied to a uint64 packed array is not "
                "known to be uint64; cast it with np.uint64(...)",
            )

    def _check_augassign(
        self, ctx: FileContext, node: ast.AugAssign, scope: _ScopeTracker
    ) -> Iterator[Finding]:
        if not isinstance(node.op, _BIT_OPS + _ARITH_OPS):
            return
        if not scope.is_uint64(node.target):
            return
        if is_int_literal(node.value):
            yield ctx.finding(
                self,
                node,
                "in-place uint64 packed-word update with an untyped int "
                "literal; wrap it in np.uint64(...)",
            )
        elif isinstance(node.op, _SHIFT_OPS) and not scope.is_uint64(node.value):
            yield ctx.finding(
                self,
                node,
                "in-place shift of a uint64 packed array by an amount not "
                "known to be uint64; cast it with np.uint64(...)",
            )
