"""Concurrency-safety rules (CONC001-CONC003).

The determinism guarantee survives parallelism only because three
boundaries hold, and each has a way of eroding silently:

* **CONC001** — the online mutators (``set_goal``, ``inject_request``,
  ``force_boost``, ``inject_faults``) change simulation state between
  engine steps. Called from inside the step loop — an engine callback,
  a policy hook — they would make results depend on event interleaving.
  The only legitimate callers are the daemon's command dispatch
  (``_cmd_*`` handlers, the ``_ingest*`` path) and other mutators
  (delegation); anything else needs an explicit, reasoned suppression.
* **CONC002** — arguments reaching a process fan-out
  (``analysis/parallel.execute``/``map_parallel``) cross a pickle
  boundary. Lambdas and function-local ``def``s are unpicklable, and
  the error surfaces only at fan-out time on a worker; this rule
  catches them at the call site statically.
* **CONC003** — module-level mutable state (dicts/lists/sets) in
  result-producing packages is shared by every run in the process and
  invisible to the cache key. Registries are fine when named as
  constants (UPPER_CASE, populated at import and never mutated);
  lowercase module globals are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import bare_call_name
from repro.lint.context import FileContext, ProjectContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

#: Online mutators: state changes that must enter between engine steps.
_MUTATORS = ("set_goal", "inject_request", "force_boost", "inject_faults")

#: Enclosing-function name prefixes allowed to invoke a mutator: the
#: daemon's command dispatch and socket-ingest paths.
_DISPATCH_PREFIXES = ("_cmd", "_ingest")

_CONC001_SCOPES = (
    "repro.core",
    "repro.sim",
    "repro.disks",
    "repro.policies",
    "repro.faults",
    "repro.serve",
)

_MUTABLE_STATE_SCOPES = (
    "repro.core",
    "repro.sim",
    "repro.disks",
    "repro.policies",
    "repro.traces",
    "repro.faults",
)


def check_mutator_call_site(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
    """CONC001: online mutators only from command dispatch (or peers)."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = bare_call_name(node)
        if name not in _MUTATORS:
            continue
        func = ctx.enclosing_function(node)
        if func is not None and (
            func.name.startswith(_DISPATCH_PREFIXES) or func.name in _MUTATORS
        ):
            continue
        yield (node.lineno, node.col_offset,
               f"online mutator {name}() called outside the daemon command "
               "dispatch; mid-step mutation makes results depend on event "
               "interleaving — route it through a _cmd_* handler")


def _local_defs(func: ast.AST) -> set[str]:
    """Names of functions defined *inside* ``func`` (unpicklable)."""
    names: set[str] = set()
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _unpicklable_exprs(
    value: ast.expr, local_defs: set[str]
) -> Iterator[tuple[ast.expr, str]]:
    """Sub-expressions of ``value`` no pickle can serialize."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Lambda):
            yield sub, "a lambda"
        elif isinstance(sub, ast.Name) and sub.id in local_defs:
            yield sub, f"function-local def {sub.id!r}"


def check_picklable_fanout(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
    """CONC002: no lambdas/local defs into process fan-outs."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = bare_call_name(node)
        if name not in ("execute", "map_parallel"):
            continue
        func = ctx.enclosing_function(node)
        locals_ = _local_defs(func) if func is not None else set()
        for value in [*node.args, *(kw.value for kw in node.keywords)]:
            for sub, what in _unpicklable_exprs(value, locals_):
                yield (sub.lineno, sub.col_offset,
                       f"{what} passed where {name}() fans out to worker "
                       "processes; pickle cannot serialize it — use a "
                       "module-level function or a spec-named registry entry")


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


def check_module_mutable_state(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
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
    rule_id="CONC001",
    name="mutator-outside-dispatch",
    description="online mutators may only be invoked from the daemon command dispatch",
    severity=Severity.ERROR,
    scopes=_CONC001_SCOPES,
    check=check_mutator_call_site,
))

register(Rule(
    rule_id="CONC002",
    name="unpicklable-fanout-argument",
    description="no lambdas or local defs into parallel execute()/map_parallel()",
    severity=Severity.ERROR,
    scopes=(),
    check=check_picklable_fanout,
))

register(Rule(
    rule_id="CONC003",
    name="module-level-mutable-state",
    description="no lowercase module-level mutable containers in result-producing packages",
    severity=Severity.ERROR,
    scopes=_MUTABLE_STATE_SCOPES,
    check=check_module_mutable_state,
))
