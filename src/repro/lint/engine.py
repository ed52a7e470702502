"""The lint engine: discovery, suppression, rule dispatch.

The engine walks the requested paths, parses every Python file once,
runs each registered rule over the files it is scoped to, and folds
inline suppressions into the result. It is a per-file pass: a file is
judged from its own source alone, and no file outside ``paths`` is read.

Suppression syntax (checked, not free-form)::

    x = time.time()  # repro: lint-ok[DET003] wall clock feeds runtime_* only

A suppression comment applies to findings on its own line, or — when the
comment stands alone on a line — to the line directly below it. The rule
id inside ``[...]`` is mandatory: a bare ``lint-ok`` suppresses nothing
and is itself reported as :data:`LINT000`, so every suppression in the
tree documents exactly which invariant it waives.

Two engine-level pseudo-rules participate in selection and reporting
like any other rule:

* ``LINT000`` — malformed suppression (missing/empty rule id list);
* ``LINT999`` — file failed to parse (syntax error).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, no_findings, register

#: Matches one suppression comment; the ids group is None for a bare
#: ``lint-ok`` (which is malformed — ids are mandatory).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok(?:\[(?P<ids>[^\]]*)\])?")

_SKIP_DIR_PARTS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


LINT000 = register(Rule(
    rule_id="LINT000",
    name="bare-suppression",
    description="every lint-ok suppression must name the rule id(s) it waives",
    severity=Severity.ERROR,
    scopes=(),
    check=no_findings,
))

LINT999 = register(Rule(
    rule_id="LINT999",
    name="parse-error",
    description="file could not be parsed as Python",
    severity=Severity.ERROR,
    scopes=(),
    check=no_findings,
))


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Python files under ``paths`` (files kept as-is, dirs walked).

    Hidden directories, caches and ``*.egg-info`` trees are skipped; the
    result is sorted and de-duplicated so runs are order-independent.
    """
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for path in candidates:
            parts = set(path.parts)
            if parts & _SKIP_DIR_PARTS:
                continue
            if any(part.endswith(".egg-info") for part in path.parts):
                continue
            key = path.resolve()
            if key in seen:
                continue
            seen.add(key)
            out.append(path)
    return out


def _load_file(path: Path) -> tuple[FileContext | None, Finding | None]:
    """Parse one file into a context, or a LINT999 finding on failure."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return None, Finding(
            path=str(path),
            line=int(line),
            col=0,
            rule_id=LINT999.rule_id,
            severity=LINT999.severity,
            message=f"cannot parse file: {exc}",
        )
    return FileContext(path, source, tree), None


def _suppressions(ctx: FileContext) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line suppressed rule ids, plus LINT000 findings for bad ones."""
    by_line: dict[int, set[str]] = {}
    malformed: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(ctx.source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - ast parsed already
        return by_line, malformed
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        line, col = tok.start
        ids_raw = match.group("ids")
        ids = [part.strip() for part in ids_raw.split(",")] if ids_raw else []
        ids = [part for part in ids if part]
        if not ids:
            malformed.append(Finding(
                path=str(ctx.path),
                line=line,
                col=col,
                rule_id=LINT000.rule_id,
                severity=LINT000.severity,
                message="suppression without a rule id; use "
                        "'# repro: lint-ok[RULE001] reason'",
            ))
            continue
        targets = [line]
        # A comment standing alone on its line covers the next line.
        prefix = ctx.source.splitlines()[line - 1][:col]
        if not prefix.strip():
            targets.append(line + 1)
        for target in targets:
            by_line.setdefault(target, set()).update(ids)
    return by_line, malformed


def lint(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    extra_findings: Iterable[Finding] = (),
) -> LintResult:
    """Lint every Python file under ``paths``.

    Args:
        paths: files and/or directories to lint.
        select: if given, only these rule ids run/report.
        ignore: rule ids to drop (wins over ``select``).
        extra_findings: pre-computed findings (the CODE_VERSION guard)
            folded through the same selection and sorting as rule output.
    """
    selected = set(select) if select is not None else None
    ignored = set(ignore) if ignore is not None else set()

    def wanted(rule_id: str) -> bool:
        if rule_id in ignored:
            return False
        return selected is None or rule_id in selected

    rules = all_rules()
    unknown = (set(selected or ()) | ignored) - set(rules)
    if unknown:
        import difflib

        hints = []
        for rule_id in sorted(unknown):
            close = difflib.get_close_matches(rule_id.upper(), list(rules), n=1)
            if close:
                hints.append(f"{rule_id} (did you mean {close[0]}?)")
            else:
                hints.append(rule_id)
        raise ValueError(f"unknown rule id(s): {', '.join(hints)}; "
                         f"known: {', '.join(sorted(rules))}")

    result = LintResult()
    raw: list[Finding] = [f for f in extra_findings if wanted(f.rule_id)]
    for path in discover_files(paths):
        ctx, parse_error = _load_file(path)
        result.files_checked += 1
        if parse_error is not None:
            if wanted(parse_error.rule_id):
                raw.append(parse_error)
            continue
        assert ctx is not None
        suppress_map, malformed = _suppressions(ctx)
        raw.extend(f for f in malformed if wanted(f.rule_id))
        for rule in rules.values():
            if not wanted(rule.rule_id) or not rule.applies_to(ctx):
                continue
            for line, col, message in rule.check(ctx):
                finding = Finding(
                    path=str(ctx.path),
                    line=line,
                    col=col,
                    rule_id=rule.rule_id,
                    severity=rule.severity,
                    message=message,
                )
                if rule.rule_id in suppress_map.get(line, ()):
                    result.suppressed.append(finding)
                else:
                    raw.append(finding)
    result.findings = sorted(raw)
    result.suppressed.sort()
    return result
