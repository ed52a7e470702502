"""Git-history guards (CACHE002, PROTO003).

Two constants in this repo promise invalidation when their surroundings
change, and both promises need git history to check:

* ``repro.analysis.cache.CODE_VERSION`` is folded into every result
  cache key so changing simulator *code* invalidates cached *results*
  — **CACHE002** diffs the working tree against a base revision and
  fails when the semantics-bearing packages (``core``, ``sim``,
  ``disks``, ``policies``) changed while ``CODE_VERSION`` did not;
* ``repro.serve.protocol.PROTOCOL_VERSION`` is reported by ``ping`` so
  clients can refuse a daemon they don't speak — **PROTO003** parses
  the base and working-tree ``protocol.py`` and fails when the command
  set or any command's request fields (``COMMANDS``) changed while the
  version did not.

Unlike the AST rules these need git history, so they run only when the
CLI is given ``--guard-base`` (CI passes the PR base ref). Their
findings carry rule ids ``CACHE002``/``PROTO003`` and flow through the
same selection, suppression and reporting machinery as everything else.
"""

from __future__ import annotations

import ast
import re
import subprocess
from pathlib import Path
from typing import Any

from repro.lint.findings import Finding, Severity

#: Packages whose changes demand a CODE_VERSION bump.
_SENSITIVE = re.compile(r"^src/repro/(core|sim|disks|policies)/.*\.py$")

_CACHE_MODULE = "src/repro/analysis/cache.py"

_VERSION_RE = re.compile(r'^CODE_VERSION\s*=\s*["\']([^"\']+)["\']', re.MULTILINE)


def _git(repo: Path, *args: str) -> str | None:
    """Run git in ``repo``; None on any failure (not a repo, bad ref)."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(repo), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def _version_in(text: str) -> str | None:
    match = _VERSION_RE.search(text)
    return match.group(1) if match else None


def resolve_repo_root(start: Path | None = None) -> Path:
    """Toplevel of the git repository containing ``start`` (default cwd).

    Falls back to ``start`` itself outside a work tree, so callers can
    pass the result straight to :func:`check_code_version_bump` — which
    then reports the unreadable cache module instead of passing silently.
    """
    base = start if start is not None else Path.cwd()
    out = _git(base, "rev-parse", "--show-toplevel")
    if out is not None and out.strip():
        return Path(out.strip())
    return base


def check_code_version_bump(repo: Path, base: str) -> list[Finding]:
    """CACHE002 findings for ``repo`` diffed against git ref ``base``.

    Uses the merge-base of ``base`` and HEAD when one exists (so CI can
    pass the target branch directly), falling back to ``base`` itself.
    Unreadable history degrades to a single finding rather than a crash,
    so CI misconfiguration cannot silently disable the guard.
    """
    merge_base = _git(repo, "merge-base", base, "HEAD")
    anchor = merge_base.strip() if merge_base else base

    # Diff the anchor against the *working tree* (not HEAD) so locally
    # uncommitted simulator changes are seen too; in CI the two agree.
    diff = _git(repo, "diff", "--name-only", anchor, "--")
    if diff is None:
        return [Finding(
            path=_CACHE_MODULE, line=1, col=0,
            rule_id="CACHE002", severity=Severity.ERROR,
            message=f"cannot diff against {base!r}; CODE_VERSION guard "
                    "could not run (is the base ref fetched?)",
        )]

    changed = [line for line in diff.splitlines() if _SENSITIVE.match(line)]
    if not changed:
        return []

    base_cache = _git(repo, "show", f"{anchor}:{_CACHE_MODULE}")
    if base_cache is None:
        # The cache module did not exist at base: any version passes.
        return []
    old_version = _version_in(base_cache)

    cache_path = repo / _CACHE_MODULE
    try:
        cache_text = cache_path.read_text(encoding="utf-8")
    except OSError:
        cache_text = None
    new_version = _version_in(cache_text) if cache_text is not None else None

    if new_version is None:
        # An unreadable or versionless cache module must be loud, not a
        # pass: returning [] here would silently disable the guard when
        # the repo path is wrong (e.g. run from a subdirectory).
        return [Finding(
            path=_CACHE_MODULE, line=1, col=0,
            rule_id="CACHE002", severity=Severity.ERROR,
            message=f"cannot read CODE_VERSION from {cache_path}; the "
                    "guard could not verify the bump (is the repo root "
                    "right and the constant still defined?)",
        )]

    if old_version is not None and old_version == new_version:
        sample = ", ".join(changed[:3]) + ("..." if len(changed) > 3 else "")
        match = _VERSION_RE.search(cache_text)
        line = cache_text[:match.start()].count("\n") + 1 if match else 1
        return [Finding(
            path=_CACHE_MODULE, line=line, col=0,
            rule_id="CACHE002", severity=Severity.ERROR,
            message=f"simulator code changed ({sample}) but CODE_VERSION "
                    f"is still {old_version!r}; bump it so cached results "
                    "from the old code cannot be served for the new code",
        )]
    return []


# -- PROTO003: PROTOCOL_VERSION bump guard -----------------------------------

_PROTOCOL_MODULE = "src/repro/serve/protocol.py"


def _protocol_surface(text: str) -> dict[str, Any] | None:
    """The wire contract of a ``protocol.py`` source text.

    Returns ``{"version": ..., "commands": ..., "fields": ...}``: the
    ``PROTOCOL_VERSION`` literal, the set of command names and
    ``{command: sorted request fields}``, or None when the text does not
    parse. The contract is read from the one ``COMMANDS`` dict; an older
    module that lists ``COMMANDS`` as a sequence and the fields in a
    separate dict literal keyed by exactly those commands states the
    same contract. Parts the module does not define come back as None —
    "unknown", never "unchanged".
    """
    try:
        tree = ast.parse(text)
    except SyntaxError:
        return None
    literals: dict[str, Any] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and value is not None:
                try:
                    literals[target.id] = ast.literal_eval(value)
                except ValueError:
                    pass
    commands = literals.get("COMMANDS")
    fields: Any = None
    if isinstance(commands, dict):
        fields = commands
    elif isinstance(commands, (list, tuple)):
        fields = next((v for v in literals.values()
                       if isinstance(v, dict) and set(v) == set(commands)), None)
    else:
        commands = None
    if isinstance(fields, dict):
        fields = {cmd: sorted(value) if isinstance(value, (list, tuple)) else value
                  for cmd, value in fields.items()}
    return {
        "version": literals.get("PROTOCOL_VERSION"),
        "commands": set(commands) if commands is not None else None,
        "fields": fields,
    }


def check_protocol_version_bump(repo: Path, base: str) -> list[Finding]:
    """PROTO003 findings for ``repo`` diffed against git ref ``base``.

    Same anchoring as :func:`check_code_version_bump`: merge-base of
    ``base`` and HEAD when one exists, the working tree on the new side,
    loud single-finding degradation when history is unreadable.
    """
    merge_base = _git(repo, "merge-base", base, "HEAD")
    anchor = merge_base.strip() if merge_base else base

    old_text = _git(repo, "show", f"{anchor}:{_PROTOCOL_MODULE}")
    if old_text is None:
        # No protocol module at base (or unreadable ref): a brand-new
        # protocol needs no bump; a bad ref already fails CACHE002 loudly.
        return []
    old = _protocol_surface(old_text)
    if old is None:
        return []

    proto_path = repo / _PROTOCOL_MODULE
    try:
        new_text = proto_path.read_text(encoding="utf-8")
    except OSError:
        new_text = None
    new = _protocol_surface(new_text) if new_text is not None else None
    if new is None:
        return [Finding(
            path=_PROTOCOL_MODULE, line=1, col=0,
            rule_id="PROTO003", severity=Severity.ERROR,
            message=f"cannot read the protocol surface from {proto_path}; "
                    "the PROTOCOL_VERSION guard could not run (is the repo "
                    "root right and the module still parseable?)",
        )]

    def _drifted(old_value: Any, new_value: Any) -> bool:
        # A contract part the base did not define yet cannot have
        # drifted (introducing it is not a wire change); deleting one
        # the base had is always drift.
        if old_value is None:
            return False
        if new_value is None:
            return True
        return old_value != new_value

    changed: list[str] = []
    if _drifted(old["commands"], new["commands"]):
        changed.append("command set")
    if _drifted(old["fields"], new["fields"]):
        changed.append("request fields")
    if not changed:
        return []
    if old["version"] != new["version"]:
        return []
    return [Finding(
        path=_PROTOCOL_MODULE, line=1, col=0,
        rule_id="PROTO003", severity=Severity.ERROR,
        message=f"the wire contract in COMMANDS changed ({' and '.join(changed)}) but "
                f"PROTOCOL_VERSION is still {new['version']!r}; bump it so "
                "clients can refuse a daemon they no longer speak",
    )]
