"""The rule registry.

A rule is a pure function from one file's context to raw findings plus
the metadata the engine needs to scope, filter and report it. Rules
self-register at import time via :func:`register`; importing
:mod:`repro.lint.rules` pulls in every built-in rule module, so the
registry is fully populated by the time the engine runs.

Raw findings are ``(line, col, message)`` triples — the engine stamps
rule id, severity and path, applies scope/suppression/selection, and
wraps them into :class:`~repro.lint.findings.Finding` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.lint.context import FileContext
from repro.lint.findings import Severity

#: A rule callback: yields (line, col, message) for each violation.
RuleCheck = Callable[[FileContext], Iterable[tuple[int, int, str]]]


def no_findings(ctx: FileContext) -> Iterable[tuple[int, int, str]]:
    """Check of the rules whose findings do not come from a file's AST:
    the engine's pseudo-rules and the git-history guards."""
    return ()


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule.

    Attributes:
        rule_id: stable identifier used in reports and suppressions
            (``DET001``, ``UNIT001``, ...).
        name: short kebab-case label for catalogs.
        description: one-line statement of the invariant the rule
            protects.
        severity: default severity of its findings.
        scopes: dotted module prefixes the rule applies to inside the
            ``repro`` package; empty = every module. Files that resolve
            outside the package (fixtures) are always in scope.
        check: the callback producing raw findings.
    """

    rule_id: str
    name: str
    description: str
    severity: Severity
    scopes: tuple[str, ...]
    check: RuleCheck

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` (module-scope filtering)."""
        if not self.scopes or not ctx.in_repro:
            return True
        return any(
            ctx.module == scope or ctx.module.startswith(scope + ".")
            for scope in self.scopes
        )


_RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry; duplicate ids are a programming bug."""
    if rule.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _RULES[rule.rule_id] = rule
    return rule


def all_rules() -> dict[str, Rule]:
    """Registered rules by id, with the built-in set loaded."""
    # Importing the rules package triggers registration of every
    # built-in rule module exactly once.
    import repro.lint.rules  # noqa: F401  (import-for-side-effect)

    return dict(_RULES)
