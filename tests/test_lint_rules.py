"""Per-rule tests: each rule fires on its bad fixture and stays silent
on the compliant one.

Fixture files live in ``tests/lint_fixtures/`` (named without a
``test_`` prefix so pytest never collects them). They resolve outside
the ``repro`` package, which the engine treats as in-scope for every
rule — that is how scoped rules (DET*, OBS*) are exercised without
faking a package layout.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.lint import check_protocol_version_bump, lint

FIXTURES = Path(__file__).parent / "lint_fixtures"

RULES = ["DET001", "DET002", "DET003", "DET004",
         "UNIT001", "UNIT002", "OBS002",
         "RES001", "RES002", "CONC003"]


def _findings(filename: str, rule_id: str):
    return lint([FIXTURES / filename], select=[rule_id])


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_fires_on_bad_fixture(rule_id):
    result = _findings(f"{rule_id.lower()}_bad.py", rule_id)
    assert result.findings, f"{rule_id} missed every violation in its bad fixture"
    assert all(f.rule_id == rule_id for f in result.findings)


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_silent_on_ok_fixture(rule_id):
    result = _findings(f"{rule_id.lower()}_ok.py", rule_id)
    assert not result.findings, (
        f"{rule_id} false-positives on compliant code: "
        + "; ".join(f"{f.line}:{f.message}" for f in result.findings))


def test_expected_bad_fixture_counts():
    """Pin the exact violation count per bad fixture so rule regressions
    (weaker *or* stronger matching) surface as a diff here."""
    expected = {
        "DET001": 3, "DET002": 2, "DET003": 3, "DET004": 3,
        "UNIT001": 3, "UNIT002": 3, "OBS002": 2,
        "RES001": 3, "RES002": 2,
        "CONC003": 3,
    }
    for rule_id, count in expected.items():
        result = _findings(f"{rule_id.lower()}_bad.py", rule_id)
        assert len(result.findings) == count, (
            f"{rule_id}: expected {count} findings, got "
            f"{[(f.line, f.message) for f in result.findings]}")


def test_det003_suppression_in_ok_fixture_is_counted():
    result = _findings("det003_ok.py", "DET003")
    assert not result.findings
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule_id == "DET003"


def test_findings_carry_file_line_col_spans():
    result = _findings("det001_bad.py", "DET001")
    for f in result.findings:
        assert f.path.endswith("det001_bad.py")
        assert f.line > 0 and f.col >= 0
        assert f.location() == f"{f.path}:{f.line}:{f.col}"


# -- seeded mutation checks ---------------------------------------------------
#
# Each check injects the exact defect its rule exists for and asserts
# the rule trips — proving the guards fail closed, not just that they
# stay quiet on compliant code.


def test_mutation_unclosed_socket_trips_res001(tmp_path):
    mutated = tmp_path / "leak.py"
    mutated.write_text(
        "import socket\n\n"
        "def probe(address):\n"
        "    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)\n"
        "    sock.connect(address)\n"
        "    sock.sendall(b'ping')\n"
    )
    result = lint([mutated], select=["RES001"])
    assert [f.rule_id for f in result.findings] == ["RES001"]
    assert "socket.socket" in result.findings[0].message


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@t", "-c", "user.name=t",
         *args],
        check=True, capture_output=True)


_PROTOCOL_TEMPLATE = """\
PROTOCOL_VERSION = {version}
COMMANDS = {commands!r}
"""

#: The earlier layout: the command names in a tuple, their request
#: fields in a second dict keyed by the same names.
_OLD_PROTOCOL_TEMPLATE = """\
PROTOCOL_VERSION = {version}
COMMANDS = {commands!r}
MESSAGE_FIELDS = {fields!r}
"""


def _protocol_repo(tmp_path, base_text: str):
    repo = tmp_path / "repo"
    (repo / "src/repro/serve").mkdir(parents=True)
    proto = repo / "src/repro/serve/protocol.py"
    proto.write_text(base_text)
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    return repo, proto


@pytest.fixture
def protocol_repo(tmp_path):
    """A git repo whose serve protocol module is at version 1."""
    return _protocol_repo(tmp_path, _PROTOCOL_TEMPLATE.format(
        version=1, commands={"ping": (), "status": ()}))


@pytest.fixture
def old_layout_protocol_repo(tmp_path):
    """The same version-1 contract, committed in the earlier layout."""
    return _protocol_repo(tmp_path, _OLD_PROTOCOL_TEMPLATE.format(
        version=1, commands=("ping", "status"),
        fields={"ping": (), "status": ()}))


class TestProtocolVersionGuard:
    def test_unchanged_protocol_passes(self, protocol_repo):
        repo, _ = protocol_repo
        assert check_protocol_version_bump(repo, "HEAD") == []

    def test_mutation_new_command_without_bump_trips_proto003(self, protocol_repo):
        """The seeded mutation: the command set grows but the version
        bump is (deleted|forgotten) — PROTO003 must fire."""
        repo, proto = protocol_repo
        proto.write_text(_PROTOCOL_TEMPLATE.format(
            version=1,
            commands={"ping": (), "status": (), "reset-epoch": ()},
        ))
        findings = check_protocol_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["PROTO003"]
        assert "PROTOCOL_VERSION" in findings[0].message
        assert "command set" in findings[0].message

    def test_new_command_with_bump_passes(self, protocol_repo):
        repo, proto = protocol_repo
        proto.write_text(_PROTOCOL_TEMPLATE.format(
            version=2,
            commands={"ping": (), "status": (), "reset-epoch": ()},
        ))
        assert check_protocol_version_bump(repo, "HEAD") == []

    def test_field_change_without_bump_trips_proto003(self, protocol_repo):
        repo, proto = protocol_repo
        proto.write_text(_PROTOCOL_TEMPLATE.format(
            version=1,
            commands={"ping": (), "status": ("verbose",)},
        ))
        findings = check_protocol_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["PROTO003"]
        assert "request fields" in findings[0].message

    def test_old_layout_base_with_same_contract_passes(self, old_layout_protocol_repo):
        """A base that states the contract as a command tuple plus a
        field dict matches the one-dict layout with the same commands
        and fields, in any order."""
        repo, proto = old_layout_protocol_repo
        proto.write_text(_PROTOCOL_TEMPLATE.format(
            version=1, commands={"status": (), "ping": ()}))
        assert check_protocol_version_bump(repo, "HEAD") == []

    def test_old_layout_base_field_change_without_bump_trips_proto003(
            self, old_layout_protocol_repo):
        """The old layout's field dict is read, not skipped as unknown."""
        repo, proto = old_layout_protocol_repo
        proto.write_text(_PROTOCOL_TEMPLATE.format(
            version=1, commands={"ping": (), "status": ("verbose",)}))
        findings = check_protocol_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["PROTO003"]
        assert "request fields" in findings[0].message

    def test_deleted_protocol_module_is_loud(self, protocol_repo):
        repo, proto = protocol_repo
        proto.unlink()
        findings = check_protocol_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["PROTO003"]
        assert "could not run" in findings[0].message


def test_det_and_unit_rules_cover_traces_ingest():
    """The ingest loaders are result code: determinism and unit rules
    must treat ``repro.traces.ingest`` as in scope."""
    import ast
    from pathlib import Path

    from repro.lint.context import FileContext
    from repro.lint.registry import all_rules

    path = Path("src/repro/traces/ingest.py")
    ctx = FileContext(path, path.read_text(), ast.parse(path.read_text()))
    assert ctx.module == "repro.traces.ingest"
    rules = all_rules()
    for rule_id in ("DET001", "DET002", "DET003", "UNIT001", "UNIT002"):
        assert rules[rule_id].applies_to(ctx), f"{rule_id} skips ingest"
