"""Determinism rules (DET001-DET004).

The repo's load-bearing guarantee is that a simulation result is a pure
function of its spec: ``jobs=2`` must be byte-identical to ``jobs=1``
and the content-hash cache must never alias two behaviours onto one key.
These rules keep the two classic leaks out of result-producing code:

* **hidden entropy** — an unseeded RNG, the stdlib global RNG, or the
  wall clock feeding a result;
* **hash-order iteration** — iterating a ``set`` in result-producing
  code, where Python's iteration order is an implementation detail.

Scope: the result-producing packages ``repro.core``, ``repro.sim``,
``repro.disks``, ``repro.policies``, ``repro.traces`` and
``repro.faults``. The analysis
and CLI layers may read the clock (progress reporting); the simulator
may not, except through an explicit suppression that documents why
(see ``runtime_*`` wall-clock instrumentation in the runner).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Severity
from repro.lint.registry import Rule, register

_RESULT_SCOPES = (
    "repro.core",
    "repro.sim",
    "repro.disks",
    "repro.policies",
    "repro.traces",
    "repro.faults",
)

#: Stdlib ``random`` module-level functions draw from one hidden global
#: generator; any use in result code is nondeterministic across runs
#: unless globally seeded (which parallel workers would still share
#: incorrectly). ``random.Random(seed)`` instances are fine.
_STDLIB_RANDOM_OK = {"random.Random", "random.SystemRandom"}

#: Wall-clock sources; none may influence a simulation result.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Builtins whose consumption of an iterable is order-insensitive (or
#: order-restoring), so feeding them a set is deterministic.
_ORDER_SAFE_CALLS = {"sorted", "len", "min", "max", "any", "all", "frozenset", "set"}

#: RNG constructors that are deterministic when handed an explicit seed
#: (and hidden entropy when not): ``default_rng`` plus the BitGenerator
#: classes, mirroring the ``random.Random(seed)`` carve-out in DET002.
_NUMPY_SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}


def _calls(ctx: FileContext) -> Iterator[tuple[ast.Call, str]]:
    """Every call in the file with the dotted name it resolves to
    through the file's own import table
    (:meth:`FileContext.qualified_call_name`)."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = ctx.qualified_call_name(node.func)
            if name is not None:
                yield node, name


def check_unseeded_rng(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """DET001: numpy RNG construction/use without an explicit seed."""
    for call, name in _calls(ctx):
        if name in _NUMPY_SEEDED_CONSTRUCTORS:
            if not call.args and not call.keywords:
                yield (call.lineno, call.col_offset,
                       f"{name}() without a seed; pass a seed or "
                       "SeedSequence derived from the spec")
        elif name.startswith("numpy.random.") and name not in (
            "numpy.random.SeedSequence",
            "numpy.random.Generator",
        ):
            yield (call.lineno, call.col_offset,
                   f"{name}() uses numpy's hidden global RNG; construct a "
                   "seeded Generator (np.random.default_rng(seed)) instead")


def check_stdlib_random(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """DET002: stdlib ``random`` global-state RNG in result code."""
    for call, name in _calls(ctx):
        if not (name == "random" or name.startswith("random.")):
            continue
        if name in _STDLIB_RANDOM_OK and (call.args or call.keywords):
            continue
        yield (call.lineno, call.col_offset,
               f"{name}() draws from the stdlib global RNG; use a seeded "
               "np.random.default_rng(seed) (or random.Random(seed)) instead")


def check_wall_clock(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """DET003: wall-clock reads in result-producing code."""
    for call, name in _calls(ctx):
        if name in _WALL_CLOCK or name.endswith((".datetime.now", ".datetime.utcnow")):
            yield (call.lineno, call.col_offset,
                   f"{name}() reads the wall clock; simulated time lives on "
                   "engine.now — results must not depend on real time")


class _SetTracker(ast.NodeVisitor):
    """Collects identifiers (bare or attribute names) annotated or
    assigned as sets anywhere in the file."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    @staticmethod
    def _target_name(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _is_set_annotation(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
        if isinstance(node, ast.Subscript):
            return _SetTracker._is_set_annotation(node.value)
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "AbstractSet")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.lstrip()
            return text.startswith(("set[", "set(", "frozenset[", "Set[", "FrozenSet["))
        return False

    @staticmethod
    def _is_set_value(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = self._target_name(node.target)
        if name is not None and self._is_set_annotation(node.annotation):
            self.set_names.add(name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_value(node.value):
            for target in node.targets:
                name = self._target_name(target)
                if name is not None:
                    self.set_names.add(name)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and self._is_set_annotation(node.annotation):
            self.set_names.add(node.arg)
        self.generic_visit(node)


def check_set_iteration(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    """DET004: iteration over a bare set in result-producing code."""
    tracker = _SetTracker()
    tracker.visit(ctx.tree)

    def is_bare_set(node: ast.expr) -> bool:
        if _SetTracker._is_set_value(node):
            return True
        name = _SetTracker._target_name(node)
        return name is not None and name in tracker.set_names

    def flag(node: ast.expr) -> Iterator[tuple[int, int, str]]:
        if is_bare_set(node):
            yield (node.lineno, node.col_offset,
                   "iterating a set: Python set order is an implementation "
                   "detail; iterate sorted(...) for a deterministic order")

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            for gen in node.generators:
                # A set comprehension *over* a set produces another
                # unordered set; the order leak happens when the set is
                # consumed, which the other branches catch.
                if not isinstance(node, ast.SetComp):
                    yield from flag(gen.iter)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "enumerate") and node.args:
                yield from flag(node.args[0])


register(Rule(
    rule_id="DET001",
    name="unseeded-numpy-rng",
    description="numpy RNGs in result-producing code must be explicitly seeded",
    severity=Severity.ERROR,
    scopes=_RESULT_SCOPES,
    check=check_unseeded_rng,
))

register(Rule(
    rule_id="DET002",
    name="stdlib-global-rng",
    description="stdlib random (global-state RNG) is banned in result-producing code",
    severity=Severity.ERROR,
    scopes=_RESULT_SCOPES,
    check=check_stdlib_random,
))

register(Rule(
    rule_id="DET003",
    name="wall-clock-read",
    description="wall-clock reads must not influence simulation results",
    severity=Severity.ERROR,
    scopes=_RESULT_SCOPES,
    check=check_wall_clock,
))

register(Rule(
    rule_id="DET004",
    name="set-iteration-order",
    description="no iteration over bare sets in result-producing modules",
    severity=Severity.ERROR,
    scopes=_RESULT_SCOPES,
    check=check_set_iteration,
))
