"""Observability-pairing rules (OBS001-OBS002).

The observability layer's contract (DESIGN.md) is two-sided:

* a *disabled* run pays nothing and stays byte-identical — hence every
  ``emit(...)`` call site must be dominated by an ``is not None`` guard
  on the hook (**OBS002**);
* an *enabled* run tells a complete story — a metrics counter that
  increments with no corresponding trace event produces aggregate
  numbers nobody can drill into, so every counter-increment site must
  sit in a function that emits (or calls into a function that emits) a
  trace event for the same program point (**OBS001**).

OBS001 is a cross-file analysis: ``PDCPolicy._period_boundary`` bumps
``pdc_periods`` and emits nothing directly, but it calls
``MigrationExecutor.start``/``cancel`` which carry the guarded emits.
The rule asks the project call graph (:mod:`repro.lint.callgraph`) for
the fixpoint of *emitting functions* — a function is emitting if its
body contains an ``.emit(...)`` call, or it calls (resolved edge or
shared bare name) a function already in the set — and accepts an
increment site whose enclosing function is emitting. Membership is
tested by bare name, which is deliberately permissive: the rule's job
is to catch counters with *no plausible* paired event, not to prove the
pairing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo
from repro.lint.context import FileContext, ProjectContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

_OBS_SCOPES = (
    "repro.core",
    "repro.sim",
    "repro.disks",
    "repro.policies",
    "repro.faults",
    "repro.serve",
)

_EMITTING_CACHE_KEY = "obspairing.emitting_functions"


def _is_emit_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
    )


def _called_names(func: ast.AST) -> set[str]:
    """Bare names of everything a function body calls."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                names.add(node.func.id)
    return names


def _emits_directly(info: FunctionInfo) -> bool:
    return any(_is_emit_call(sub) for sub in ast.walk(info.node))


def _emitting_functions(project: ProjectContext) -> frozenset[str]:
    """Fixpoint of function names that (transitively) emit trace events."""
    cached = project.cache.get(_EMITTING_CACHE_KEY)
    if cached is not None:
        return cached

    emitting = project.call_graph().fixpoint(_emits_directly)
    project.cache[_EMITTING_CACHE_KEY] = emitting
    return emitting


def check_counter_pairing(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
    """OBS001: counter increments must pair with a trace emit."""
    emitting = _emitting_functions(project)
    for node in ast.walk(ctx.tree):
        # Matches ``<metrics>.counter("name").inc(...)``.
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inc"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "counter"
        ):
            continue
        func = ctx.enclosing_function(node)
        if func is not None and (
            func.name in emitting
            or any(_is_emit_call(sub) for sub in ast.walk(func))
            or _called_names(func) & emitting
        ):
            continue
        yield (node.lineno, node.col_offset,
               "counter increment with no paired trace emit on this code "
               "path; emit a trace event here (or from a callee) so enabled "
               "runs can attribute the count")


def _guard_covers(test: ast.expr, targets: tuple[str, ...]) -> bool:
    """Whether an If test contains ``<target> is not None`` for one of
    the dumped target expressions (BoolOp conjunctions are walked)."""
    if isinstance(test, ast.BoolOp):
        return any(_guard_covers(value, targets) for value in test.values)
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ast.dump(test.left) in targets
    return False


def check_guarded_emit(
    ctx: FileContext, project: ProjectContext
) -> Iterator[tuple[int, int, str]]:
    """OBS002: every emit call dominated by an ``is not None`` guard."""
    for node in ast.walk(ctx.tree):
        if not _is_emit_call(node):
            continue
        assert isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        # The guard may test the hook itself (``self.emit is not None``)
        # or the object holding it (``sim is not None``).
        targets = (ast.dump(node.func), ast.dump(node.func.value))
        guarded = any(
            isinstance(ancestor, ast.If) and _guard_covers(ancestor.test, targets)
            for ancestor in ctx.ancestors(node)
        )
        if not guarded:
            yield (node.lineno, node.col_offset,
                   "emit call without an 'is not None' guard on the hook; "
                   "disabled runs must skip event construction entirely")


register(Rule(
    rule_id="OBS001",
    name="counter-without-trace",
    description="counter increments must pair with a trace emit on the same path",
    severity=Severity.ERROR,
    scopes=_OBS_SCOPES,
    check=check_counter_pairing,
))

register(Rule(
    rule_id="OBS002",
    name="unguarded-emit",
    description="every emit call must be guarded by 'hook is not None'",
    severity=Severity.ERROR,
    scopes=_OBS_SCOPES,
    check=check_guarded_emit,
))
