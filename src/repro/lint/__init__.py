"""repro.lint: simulator-aware static analysis, one file at a time.

A linter that enforces the invariants this repo's reproduction
guarantees rest on — determinism of result-producing code, unit-suffix
consistency, the cache's code version, guarded observability emits, the
serve-protocol version, resource lifecycles and module-level state.
Each rule judges a file from its own source; the two version guards
read git history. See ``docs/linting.md`` for the rule catalog and
suppression syntax, and run it via ``repro lint``.
"""

from repro.lint.engine import LintResult, discover_files, lint
from repro.lint.findings import Finding, Severity
from repro.lint.guard import (
    check_code_version_bump,
    check_protocol_version_bump,
    resolve_repo_root,
)
from repro.lint.registry import Rule, all_rules, register
from repro.lint.reporters import render_json, render_rule_list, render_text

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "Severity",
    "all_rules",
    "check_code_version_bump",
    "check_protocol_version_bump",
    "discover_files",
    "lint",
    "register",
    "render_json",
    "render_rule_list",
    "render_text",
    "resolve_repo_root",
]
