"""Cache-key guard (CACHE002).

The result cache keys runs by content hash plus
``repro.analysis.cache.CODE_VERSION``. A key is only as good as that
tag: when simulator code changes what a spec computes and the tag stays,
old entries are served as if they were fresh. CACHE002 demands a
CODE_VERSION bump whenever simulator code changed against the base ref;
its findings come from :mod:`repro.lint.guard` (git history), not from
file ASTs.

That every spec field reaches the key is a property of the key, not of
the source text, so it is tested where it can be measured: the
field-perturbation audit in ``tests/test_cache.py`` perturbs each field
of ``RunSpec``, ``ArrayConfig``, ``TraceSpec`` (per source) and
``PolicySpec`` (per kind) and asserts the key moves. A new field fails
that audit until a perturbation is registered for it.
"""

from __future__ import annotations

from repro.lint.findings import Severity
from repro.lint.registry import Rule, no_findings, register

#: CACHE002 is registered here so selection and suppression treat it
#: like any rule; repro.lint.guard produces its findings.
register(Rule(
    rule_id="CACHE002",
    name="code-version-guard",
    description="CODE_VERSION must be bumped when simulator semantics change",
    severity=Severity.ERROR,
    scopes=(),
    check=no_findings,
))
