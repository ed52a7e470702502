"""Observability guard rule (OBS002).

The observability layer's contract (DESIGN.md) is two-sided:

* a *disabled* run pays nothing and stays byte-identical — hence every
  ``emit(...)`` call site must be dominated by an ``is not None`` guard
  on the hook (**OBS002**);
* an *enabled* run tells a complete story — every policy counter equals
  the count :func:`repro.obs.summary.reconcile` derives from the run's
  events. That half is a property of the events a run emits, not of the
  source text, so it is checked by running: the reconciliation test in
  ``tests/test_obs.py`` runs every named policy observed and fails on a
  counter that has no reconcile entry or disagrees with its events.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
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


def _is_emit_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
    )


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


def check_guarded_emit(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
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
    rule_id="OBS002",
    name="unguarded-emit",
    description="every emit call must be guarded by 'hook is not None'",
    severity=Severity.ERROR,
    scopes=_OBS_SCOPES,
    check=check_guarded_emit,
))
