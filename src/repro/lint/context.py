"""The per-file analysis context handed to rules.

A :class:`FileContext` owns one parsed module: source text, AST, the
dotted module name derived from the path, and lazily-built helpers
(parent links, the import table) that several rules share. Every rule
judges one file from its own context alone; no rule reads another file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator


def module_name_for_path(path: Path) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    ``src/repro/sim/runner.py`` maps to ``repro.sim.runner``. Files that
    do not live under a ``repro`` directory (rule fixtures, scratch
    files) map to their bare stem — the engine treats such modules as
    in-scope for every rule, which is what makes fixture files exercise
    scoped rules without faking a package layout.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


class FileContext:
    """One parsed source file plus shared per-file analysis helpers."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for_path(path)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._imports: dict[str, str] | None = None

    @property
    def in_repro(self) -> bool:
        """Whether this file resolved to a module under the repro package."""
        return self.module == "repro" or self.module.startswith("repro.")

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent links over the whole tree (built once)."""
        if self._parents is None:
            links: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    links[child] = parent
            self._parents = links
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, nearest first."""
        links = self.parents()
        current = links.get(node)
        while current is not None:
            yield current
            current = links.get(current)

    def imports(self) -> dict[str, str]:
        """Local alias -> fully-qualified imported name.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time as now`` maps ``now -> time.time``. Used by rules to resolve
        call sites back to the module they actually reach.
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname is not None:
                            table[alias.asname] = alias.name
                        else:
                            # ``import a.b.c`` binds the name ``a`` to
                            # the top-level module ``a``.
                            top = alias.name.split(".")[0]
                            table[top] = top
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    def qualified_call_name(self, func: ast.expr) -> str | None:
        """Fully-qualified dotted name a call expression resolves to.

        Follows the file's import table one step: ``np.random.default_rng``
        resolves to ``numpy.random.default_rng`` under ``import numpy as
        np``. Returns None for calls on computed expressions.
        """
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.imports().get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Nearest function definition containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None
