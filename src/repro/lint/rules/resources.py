"""Resource-lifecycle rules (RES001-RES002).

The serve daemon made the simulator long-running: sockets, trace
writers and result files now outlive the function that created them,
and the failure modes are the quiet kind — a leaked client socket per
reconnect, a torn result JSON after a mid-write SIGTERM that a later
reader mistakes for data. Scope is the long-running and result-bearing
packages (``repro.serve``, ``repro.analysis``, ``repro.perf``).

* **RES001** — every acquired resource (``open(...)``,
  ``socket.socket(...)``, ``JsonlWriter(...)``) must have a visible
  release path: a ``with`` block, a ``.close()`` reachable in a
  ``finally``, storage on ``self`` with a class-level ``.close()``, or
  an ownership transfer (the function returns the handle).
* **RES002** — write-mode ``open()`` calls must use the atomic
  tempfile + :func:`os.replace` idiom — in practice,
  :func:`repro.analysis.atomicio.atomic_write`; a bare
  ``open(path, "w")`` is accepted only when the enclosing function
  itself performs the ``os.replace``/``os.rename``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

_RES_SCOPES = (
    "repro.serve",
    "repro.analysis",
    "repro.perf",
)

def _is_acquire(ctx: FileContext, node: ast.Call) -> str | None:
    """The resource kind a call acquires, or None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in ("open", "JsonlWriter"):
        return func.id
    dotted = ctx.qualified_call_name(func)
    if dotted == "socket.socket":
        return "socket.socket"
    if dotted is not None and dotted.endswith(".JsonlWriter"):
        return "JsonlWriter"
    return None


def _assign_target(ctx: FileContext, node: ast.Call) -> ast.expr | None:
    """The Name/Attribute the call's value is bound to, walking through
    value-preserving wrappers (ternaries like ``X(...) if p else None``)."""
    child: ast.AST = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.IfExp) and child is not ancestor.test:
            child = ancestor
            continue
        if isinstance(ancestor, ast.Assign) and len(ancestor.targets) == 1:
            return ancestor.targets[0]
        if isinstance(ancestor, ast.AnnAssign):
            return ancestor.target
        return None
    return None


def _closes_name(body: ast.AST, name: str) -> bool:
    """Whether ``body`` contains ``<name>.close()`` (or shutdown)."""
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("close", "shutdown")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
    return False


def _closed_in_finally(func: ast.AST, name: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                if _closes_name(stmt, name):
                    return True
    return False


def _entered_or_returned(func: ast.AST, name: str) -> bool:
    """The local is used as a with-item or handed to the caller."""
    for node in ast.walk(func):
        if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
                if isinstance(expr, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == name for arg in expr.args
                ):
                    return True
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            if node.value.id == name:
                return True
    return False


def _attr_closed_in_class(ctx: FileContext, node: ast.Call, attr: str) -> bool:
    """Whether the enclosing class has ``self.<attr>.close()`` anywhere."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            for sub in ast.walk(ancestor):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("close", "shutdown")
                    and isinstance(sub.func.value, ast.Attribute)
                    and sub.func.value.attr == attr
                ):
                    return True
            return False
    return False


def check_resource_released(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """RES001: acquired resources need a with/finally/ownership release."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        kind = _is_acquire(ctx, node)
        if kind is None:
            continue
        parent = ctx.parents().get(node)
        if isinstance(parent, ast.withitem):
            continue
        if isinstance(parent, ast.Return):
            continue  # ownership transferred to the caller
        target = _assign_target(ctx, node)
        if isinstance(target, ast.Name):
            func = ctx.enclosing_function(node)
            holder: ast.AST = func if func is not None else ctx.tree
            if (
                _closed_in_finally(holder, target.id)
                or _entered_or_returned(holder, target.id)
            ):
                continue
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if _attr_closed_in_class(ctx, node, target.attr):
                continue
        yield (node.lineno, node.col_offset,
               f"{kind}(...) acquired with no visible release; use a 'with' "
               "block, close it in a 'finally', or store it where a close() "
               "path provably reaches it")


_WRITE_MODES = ("w", "x")


def _open_write_mode(node: ast.Call) -> bool:
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return any(ch in mode.value for ch in _WRITE_MODES)


def _replaces_in(func: ast.AST, ctx: FileContext) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            dotted = ctx.qualified_call_name(node.func)
            if dotted in ("os.replace", "os.rename"):
                return True
    return False


def check_atomic_replace(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """RES002: write-mode opens must go through the atomic-replace idiom."""
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and _open_write_mode(node)
        ):
            continue
        func = ctx.enclosing_function(node)
        holder: ast.AST = func if func is not None else ctx.tree
        if _replaces_in(holder, ctx):
            continue
        yield (node.lineno, node.col_offset,
               "write-mode open() without the atomic tempfile+os.replace "
               "idiom; use repro.analysis.atomicio.atomic_write so readers "
               "never see a torn file")


register(Rule(
    rule_id="RES001",
    name="unreleased-resource",
    description="sockets/handles/JsonlWriters must be released via with, finally, or an owning close()",
    severity=Severity.ERROR,
    scopes=_RES_SCOPES,
    check=check_resource_released,
))

register(Rule(
    rule_id="RES002",
    name="non-atomic-result-write",
    description="result/cache/trace writes must use the atomic tempfile+os.replace idiom",
    severity=Severity.ERROR,
    scopes=_RES_SCOPES,
    check=check_atomic_replace,
))
