"""Unit-consistency rules (UNIT001-UNIT002).

The repo's convention (DESIGN.md) is that every quantity-bearing name
carries its unit as a suffix: ``energy_joules``, ``power_watts``,
``timeout_s``, ``latency_ms``, ``speed_rpm``. The classic reproduction
bug these rules target is silent unit mixing — adding seconds to
milliseconds, or comparing watts to joules — which produces plausible
but wrong energy numbers rather than a crash.

* **UNIT001** flags additive arithmetic (``+``, ``-``) and comparisons
  between operands whose name suffixes resolve to *different* units.
  Multiplication and division are exempt (watts x seconds = joules is
  the whole point of the simulator).
* **UNIT002** flags numeric-literal defaults on parameters and class
  fields whose name clearly denotes a power/time quantity but carries no
  unit suffix anywhere in the name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

#: Name suffix -> canonical unit. Only the *last* underscore-separated
#: token of a name is consulted, so ``write_cache_latency_s`` is seconds
#: and ``num_disks`` has no unit.
_SUFFIX_UNITS = {
    "joules": "J",
    "j": "J",
    "watts": "W",
    "w": "W",
    "seconds": "s",
    "secs": "s",
    "s": "s",
    "ms": "ms",
    "rpm": "rpm",
    "bytes": "B",
    "bps": "B/s",
}

#: Quantity words that demand a unit suffix when given a numeric default.
_QUANTITY_WORDS = {
    "timeout", "latency", "interval", "period", "delay",
    "idle", "power", "energy", "duration",
}

#: Unit tokens anywhere in a name that satisfy UNIT002.
_UNIT_TOKENS = set(_SUFFIX_UNITS) | {"fraction", "ratio", "frac", "pct", "percent"}


def bare_call_name(node: ast.Call) -> str | None:
    """The rightmost identifier a call dispatches on (``x.y.z()`` → ``z``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _name_of(node: ast.expr) -> str | None:
    """The identifier a unit suffix would hang off, if the expression
    is a plain name, attribute access, or a call to one (``f.read_s()``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return bare_call_name(node)
    return None


def _unit_of(node: ast.expr) -> str | None:
    """Unit an expression carries, or None when unknown/unitless.

    Same-unit additive BinOps propagate their unit, so
    ``a_s + b_s < c_ms`` is caught at the comparison.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = _unit_of(node.left), _unit_of(node.right)
        if left is not None and left == right:
            return left
        return None
    name = _name_of(node)
    if name is None or "_" not in name:
        return None
    return _SUFFIX_UNITS.get(name.rsplit("_", 1)[1].lower())


def check_mixed_units(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """UNIT001: additive arithmetic or comparison across unit suffixes."""
    for node in ast.walk(ctx.tree):
        pairs: list[tuple[ast.expr, ast.expr]] = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            pairs.append((node.left, node.right))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs.extend(zip(operands, operands[1:]))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            pairs.append((node.target, node.value))
        for left, right in pairs:
            lu, ru = _unit_of(left), _unit_of(right)
            if lu is not None and ru is not None and lu != ru:
                yield (node.lineno, node.col_offset,
                       f"mixing units: left operand is {lu}, right is {ru}; "
                       "convert explicitly before combining")


def _has_unit_token(name: str) -> bool:
    return any(tok in _UNIT_TOKENS for tok in name.lower().split("_"))


def _is_quantity(name: str) -> bool:
    tokens = name.lower().split("_")
    # ``moves_per_period`` is a count/rate, not a bare quantity.
    if "per" in tokens:
        return False
    return bool(tokens) and tokens[-1] in _QUANTITY_WORDS


def _numeric_literal(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _numeric_literal(node.operand)
    if isinstance(node, ast.BinOp):
        # ``4 * 3600.0`` is still a bare numeric default.
        return _numeric_literal(node.left) and _numeric_literal(node.right)
    return False


def check_suffixless_quantities(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """UNIT002: power/time quantity names defaulted to bare numbers."""

    def flag(name: str, value: ast.expr | None, node: ast.AST) -> Iterator[tuple[int, int, str]]:
        if _is_quantity(name) and not _has_unit_token(name) and _numeric_literal(value):
            yield (node.lineno, node.col_offset,
                   f"'{name}' holds a physical quantity but names no unit; "
                   "suffix it (_s, _ms, _watts, _joules, ...)")

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spec = node.args
            positional = [*spec.posonlyargs, *spec.args]
            defaults = spec.defaults
            for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
                yield from flag(arg.arg, default, arg)
            for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
                yield from flag(arg.arg, default, arg)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield from flag(stmt.target.id, stmt.value, stmt)
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name):
                    yield from flag(stmt.targets[0].id, stmt.value, stmt)


register(Rule(
    rule_id="UNIT001",
    name="mixed-unit-arithmetic",
    description="no additive arithmetic or comparison across different unit suffixes",
    severity=Severity.ERROR,
    scopes=(),
    check=check_mixed_units,
))

register(Rule(
    rule_id="UNIT002",
    name="suffixless-quantity",
    description="power/time quantities with numeric defaults must name their unit",
    severity=Severity.WARNING,
    scopes=(),
    check=check_suffixless_quantities,
))
