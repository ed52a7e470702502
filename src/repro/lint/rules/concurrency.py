"""Concurrency-safety rule (CONC003).

Module-level mutable state (dicts/lists/sets) in result-producing
packages is shared by every run in the process and invisible to the
cache key. Registries are fine when named as constants (UPPER_CASE,
populated at import and never mutated); lowercase module globals are
flagged.

The two other boundaries parallel determinism rests on are enforced
by the code on every executed path, not by lint: the online mutators
raise ``SimulationError`` when called from inside an engine callback
(``Engine.dispatching``), and the result cache raises ``TypeError``
rather than key a lambda, closure, bound method, partial or callable
instance by a name that does not identify it (``repro.analysis.cache``).
Pickle already refuses lambdas and local defs at a ``jobs > 1`` fan-out.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

_MUTABLE_STATE_SCOPES = (
    "repro.core",
    "repro.sim",
    "repro.disks",
    "repro.policies",
    "repro.traces",
    "repro.faults",
)


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("dict", "list", "set", "defaultdict", "deque")
    return False


def _is_constant_name(name: str) -> bool:
    """UPPER_CASE (optionally underscore-prefixed) or dunder names are
    registries/constants by this repo's convention, not mutable state."""
    if name.startswith("__") and name.endswith("__"):
        return True
    bare = name.lstrip("_")
    return bool(bare) and bare == bare.upper()


def check_module_mutable_state(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """CONC003: no lowercase module-level mutable containers."""
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not _is_constant_name(target.id):
                yield (stmt.lineno, stmt.col_offset,
                       f"module-level mutable state {target.id!r} is shared "
                       "across every run in the process and invisible to the "
                       "cache key; move it into the spec/run state or name "
                       "it as an UPPER_CASE import-time registry")


register(Rule(
    rule_id="CONC003",
    name="module-level-mutable-state",
    description="no lowercase module-level mutable containers in result-producing packages",
    severity=Severity.ERROR,
    scopes=_MUTABLE_STATE_SCOPES,
    check=check_module_mutable_state,
))
