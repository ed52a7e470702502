"""Cross-module symbol table and call graph for whole-program rules.

Per-file AST scans catch local mistakes; some invariants are
*interprocedural*. OBS001 accepts a counter increment only if its
function emits a trace event itself or calls, possibly several calls
and modules away, a function that does. This module gives rules that
project-wide view, built once per lint run and memoized on
:class:`~repro.lint.context.ProjectContext`:

* a :class:`SymbolTable` — every function, method and class in the
  loaded files keyed by dotted qualname, plus the re-export alias map
  (``repro.obs.JsonlWriter`` → ``repro.obs.tracelog.JsonlWriter``) so
  def/use resolution follows ``repro.*`` imports through package
  ``__init__`` re-exports;
* a :class:`CallGraph` — resolved call edges (import-table + symbol
  table + ``self.``-method resolution on known classes) with a
  name-level fallback edge set for calls static analysis cannot pin
  down, and :meth:`CallGraph.fixpoint`, which closes a property over
  "calls a function that has it" (the OBS001 emitting-function set).

Resolution is deliberately *sound for the repo's idioms, permissive
beyond them*: an edge the builder cannot resolve degrades to a bare-name
edge rather than disappearing, so property fixpoints err toward
accepting code (fewer false positives) while lookups err toward finding
the definition.
"""

from __future__ import annotations

import ast
import typing
from dataclasses import dataclass, field
from typing import Callable, Iterable

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.context import FileContext, ProjectContext


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, anchored to its file."""

    qualname: str  # "repro.serve.daemon.ServeDaemon._cmd_ping"
    name: str  # bare name: "_cmd_ping"
    module: str  # "repro.serve.daemon"
    class_name: str | None  # "ServeDaemon" for methods, None for functions
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False, compare=False)
    ctx: "FileContext" = field(repr=False, compare=False)


@dataclass(frozen=True)
class ClassInfo:
    """One class definition plus its directly defined methods."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef = field(repr=False, compare=False)
    ctx: "FileContext" = field(repr=False, compare=False)
    methods: dict[str, FunctionInfo] = field(repr=False, compare=False, default_factory=dict)


def bare_call_name(node: ast.Call) -> str | None:
    """The rightmost identifier a call dispatches on (``x.y.z()`` → ``z``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class SymbolTable:
    """Project-wide definition index with re-export alias resolution.

    Attributes:
        functions: dotted qualname -> :class:`FunctionInfo` for every
            function and method (methods under ``module.Class.method``).
        classes: dotted qualname -> :class:`ClassInfo`.
        aliases: re-export map: ``from X import Y as Z`` inside module
            ``M`` records ``M.Z -> X.Y``, so names imported through
            package ``__init__`` hops resolve to their defining module.
    """

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable["FileContext"]) -> "SymbolTable":
        table = cls()
        for ctx in files:
            table._index_file(ctx)
        return table

    def _index_file(self, ctx: "FileContext") -> None:
        module = ctx.module
        for alias, target in ctx.imports().items():
            if "." in target:
                self.aliases.setdefault(f"{module}.{alias}", target)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{module}.{stmt.name}",
                    name=stmt.name,
                    module=module,
                    node=stmt,
                    ctx=ctx,
                )
                self.classes[info.qualname] = info
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = self._add_function(ctx, member, class_name=stmt.name)
                        info.methods[member.name] = method

    def _add_function(
        self,
        ctx: "FileContext",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionInfo:
        owner = f"{ctx.module}.{class_name}" if class_name else ctx.module
        info = FunctionInfo(
            qualname=f"{owner}.{node.name}",
            name=node.name,
            module=ctx.module,
            class_name=class_name,
            node=node,
            ctx=ctx,
        )
        self.functions[info.qualname] = info
        return info

    # -- lookup --------------------------------------------------------------

    def resolve(self, dotted: str) -> str:
        """Canonical qualname of ``dotted``, following re-export chains.

        ``repro.obs.JsonlWriter.write`` resolves through the package
        ``__init__`` alias to ``repro.obs.tracelog.JsonlWriter.write``.
        Unknown names come back unchanged; alias cycles terminate.
        """
        seen: set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            if dotted in self.aliases:
                dotted = self.aliases[dotted]
                continue
            parts = dotted.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in self.aliases:
                    dotted = ".".join([self.aliases[prefix], *parts[cut:]])
                    break
            else:
                break
        return dotted

    def function(self, dotted: str) -> FunctionInfo | None:
        """Definition a dotted name refers to, through aliases, if known."""
        return self.functions.get(self.resolve(dotted))

    def class_def(self, dotted: str) -> ClassInfo | None:
        """Class a dotted name refers to, through aliases, if known."""
        return self.classes.get(self.resolve(dotted))


class CallGraph:
    """Caller → callee edges over every function the project loaded.

    Two edge sets per function: ``calls`` holds edges resolved to a
    definition's qualname (import table, symbol table, ``self.`` method
    resolution); ``called_names`` holds the bare names of *every* call
    in the body, resolved or not — the permissive fallback that keeps
    fixpoints from under-approximating on dynamic dispatch.
    """

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.calls: dict[str, set[str]] = {}
        self.called_names: dict[str, set[str]] = {}
        for info in symbols.functions.values():
            resolved, names = self._edges(info)
            self.calls[info.qualname] = resolved
            self.called_names[info.qualname] = names

    def _edges(self, info: FunctionInfo) -> tuple[set[str], set[str]]:
        resolved: set[str] = set()
        names: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            bare = bare_call_name(node)
            if bare is not None:
                names.add(bare)
            target = self._resolve_call(info, node)
            if target is not None:
                resolved.add(target)
        return resolved, names

    def _resolve_call(self, info: FunctionInfo, node: ast.Call) -> str | None:
        func = node.func
        # self.method() / cls.method(): resolve on the enclosing class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and info.class_name is not None
        ):
            owner = self.symbols.class_def(f"{info.module}.{info.class_name}")
            if owner is not None and func.attr in owner.methods:
                return owner.methods[func.attr].qualname
            return None
        dotted = info.ctx.qualified_call_name(func)
        if dotted is None:
            return None
        hit = self.symbols.function(dotted)
        if hit is not None:
            return hit.qualname
        # module-local bare call: f() inside module M is M.f.
        if isinstance(func, ast.Name):
            local = self.symbols.functions.get(f"{info.module}.{func.id}")
            if local is not None:
                return local.qualname
        return None

    # -- analysis API --------------------------------------------------------

    def fixpoint(self, base: Callable[[FunctionInfo], bool]) -> frozenset[str]:
        """Bare names of the functions satisfying ``base``, closed under
        "calls one that does".

        Propagation follows resolved edges *and* bare-name edges (a
        caller satisfies if any function sharing a called name does), so
        the result is an over-approximation suited to acceptance tests:
        "this counter site plausibly pairs with an emit" — never to
        proofs of absence. Rules test membership by bare name, so a site
        is accepted if *any* plausible callee satisfies.
        """
        infos = self.symbols.functions
        qualnames = {q for q, fi in infos.items() if base(fi)}
        names = {infos[q].name for q in qualnames}
        changed = True
        while changed:
            changed = False
            for q, fi in infos.items():
                if q in qualnames:
                    continue
                if self.calls[q] & qualnames or self.called_names[q] & names:
                    qualnames.add(q)
                    names.add(fi.name)
                    changed = True
        return frozenset(names)
