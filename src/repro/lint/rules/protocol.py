"""Serve-protocol version guard (PROTO003).

``repro.serve.protocol.COMMANDS`` is the wire contract: every command
with the request fields it takes. Changing it without bumping
``PROTOCOL_VERSION`` is caught by the git guard
(:func:`repro.lint.guard.check_protocol_version_bump`), which runs under
``--guard-base`` exactly like CACHE002. That the daemon handles and the
docs describe exactly the ``COMMANDS`` keys is checked by tests, not
lint rules (``tests/test_serve.py``).
"""

from __future__ import annotations

from repro.lint.findings import Severity
from repro.lint.registry import Rule, no_findings, register

#: PROTO003 is registered here for selection/suppression/reporting; its
#: findings come from repro.lint.guard (git history), not file ASTs.
register(Rule(
    rule_id="PROTO003",
    name="protocol-version-guard",
    description="PROTOCOL_VERSION must be bumped when the command set or request fields change",
    severity=Severity.ERROR,
    scopes=(),
    check=no_findings,
))
