"""Engine-level lint tests: suppression semantics, selection, reporters,
the CODE_VERSION guard, the CLI contract, and the tree-wide gate."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

import repro
from repro.analysis.cache import CODE_VERSION
from repro.lint import (
    Severity,
    all_rules,
    check_code_version_bump,
    lint,
    render_json,
    render_text,
    resolve_repo_root,
)
from repro.lint.reporters import JSON_SCHEMA_VERSION


def _write(tmp_path: Path, source: str, name: str = "sample.py") -> Path:
    path = tmp_path / name
    path.write_text(source)
    return path


class TestSuppression:
    def test_same_line_suppression(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()  # repro: lint-ok[DET003] fixture\n")
        result = lint([path], select=["DET003"])
        assert not result.findings
        assert len(result.suppressed) == 1

    def test_comment_only_line_covers_next_line(self, tmp_path):
        path = _write(tmp_path, "import time\n# repro: lint-ok[DET003] fixture\nx = time.time()\n")
        result = lint([path], select=["DET003"])
        assert not result.findings
        assert len(result.suppressed) == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()  # repro: lint-ok[DET001] wrong id\n")
        result = lint([path], select=["DET003"])
        assert len(result.findings) == 1
        assert result.findings[0].rule_id == "DET003"

    def test_bare_suppression_is_lint000(self, tmp_path):
        path = _write(tmp_path, "x = 1  # repro: lint-ok\n")
        result = lint([path])
        assert [f.rule_id for f in result.findings] == ["LINT000"]

    def test_empty_bracket_suppression_is_lint000(self, tmp_path):
        path = _write(tmp_path, "x = 1  # repro: lint-ok[]\n")
        result = lint([path])
        assert [f.rule_id for f in result.findings] == ["LINT000"]

    def test_multi_id_suppression(self, tmp_path):
        path = _write(
            tmp_path,
            "import time\nx = time.time()  # repro: lint-ok[DET003, DET001] fixture\n",
        )
        result = lint([path], select=["DET003"])
        assert not result.findings


class TestSelection:
    def test_select_restricts_rules(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        assert not lint([path], select=["DET001"]).findings
        assert lint([path], select=["DET003"]).findings

    def test_ignore_wins_over_select(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        result = lint([path], select=["DET003"], ignore=["DET003"])
        assert not result.findings

    def test_unknown_rule_id_raises(self, tmp_path):
        path = _write(tmp_path, "x = 1\n")
        with pytest.raises(ValueError, match="NOPE999"):
            lint([path], select=["NOPE999"])

    def test_unknown_rule_id_lists_known_and_suggests(self, tmp_path):
        """The error names every valid id and offers a did-you-mean for
        near misses, so a typo is a one-glance fix."""
        path = _write(tmp_path, "x = 1\n")
        with pytest.raises(ValueError) as excinfo:
            lint([path], select=["PROTO03"])
        message = str(excinfo.value)
        assert "did you mean PROTO003?" in message
        assert "DET003" in message and "RES001" in message

    def test_unknown_ignore_id_raises_too(self, tmp_path):
        path = _write(tmp_path, "x = 1\n")
        with pytest.raises(ValueError, match="unknown rule id"):
            lint([path], ignore=["NOPE999"])

    def test_parse_error_is_lint999(self, tmp_path):
        path = _write(tmp_path, "def broken(:\n")
        result = lint([path])
        assert [f.rule_id for f in result.findings] == ["LINT999"]
        assert result.findings[0].severity is Severity.ERROR

    def test_parse_error_fixture_carries_path_and_line(self):
        """The checked-in syntax-error fixture: the run survives and the
        finding points at the offending file:line."""
        fixture = Path(__file__).parent / "lint_fixtures" / "lint999_bad.py"
        result = lint([fixture])
        (finding,) = result.findings
        assert finding.rule_id == "LINT999"
        assert finding.path.endswith("lint999_bad.py")
        assert finding.line == 5
        assert "cannot parse" in finding.message

    def test_reads_only_the_files_it_is_given(self, tmp_path, monkeypatch):
        """Lint is a per-file pass: linting one module of a ``repro``
        package tree (the pre-commit path) reads that file, no sibling."""
        package = tmp_path / "src" / "repro"
        (package / "sim").mkdir(parents=True)
        for rel in ("__init__.py", "sim/__init__.py", "sim/other.py"):
            (package / rel).write_text("x = 1\n")
        target = _write(package / "sim", "y = 2\n", "runner.py")
        read: list[Path] = []
        read_text = Path.read_text

        def recording_read_text(self, *args, **kwargs):
            read.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recording_read_text)
        result = lint([target])
        assert result.files_checked == 1
        assert read == [target]


class TestReporters:
    def test_json_schema_stability(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        doc = json.loads(render_json(lint([path], select=["DET003"])))
        assert sorted(doc) == ["files_checked", "findings", "schema", "suppressed_count"]
        assert doc["schema"] == JSON_SCHEMA_VERSION == 1
        assert doc["files_checked"] == 1
        assert doc["suppressed_count"] == 0
        (finding,) = doc["findings"]
        assert sorted(finding) == ["col", "line", "message", "path", "rule", "severity"]
        assert finding["rule"] == "DET003"
        assert finding["severity"] == "error"
        assert finding["line"] == 2

    def test_text_report_format(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        text = render_text(lint([path], select=["DET003"]))
        first = text.splitlines()[0]
        assert first.startswith(f"{path}:2:")
        assert "error DET003" in first
        assert text.splitlines()[-1].endswith("in 1 files")

    def test_output_is_deterministic(self, tmp_path):
        _write(tmp_path, "import time\na = time.time()\n", "b.py")
        _write(tmp_path, "import time\na = time.time()\n", "a.py")
        runs = {render_json(lint([tmp_path], select=["DET003"])) for _ in range(3)}
        assert len(runs) == 1

    def test_rule_catalog_is_complete(self):
        rules = all_rules()
        assert set(rules) == {
            "DET001", "DET002", "DET003", "DET004", "UNIT001", "UNIT002",
            "CACHE002", "OBS002", "PROTO003",
            "RES001", "RES002", "CONC003", "LINT000", "LINT999"}
        assert all(rule.description for rule in rules.values())

    def test_docs_catalog_in_sync_with_registry(self):
        """Doc-sync gate: every registered rule id has a catalog entry in
        docs/linting.md and every id the docs mention is registered —
        new rule families cannot ship undocumented (or linger after
        removal)."""
        import re

        doc = (Path(__file__).parent.parent / "docs" / "linting.md").read_text(
            encoding="utf-8")
        documented = set(re.findall(
            r"\b(?:DET|UNIT|CACHE|OBS|PERF|PROTO|RES|CONC|LINT)\d{3}\b", doc))
        registered = set(all_rules())
        assert registered - documented == set(), (
            f"rules missing from docs/linting.md: {sorted(registered - documented)}")
        assert documented - registered == set(), (
            f"docs/linting.md mentions unregistered rules: {sorted(documented - registered)}")


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True, text=True)


@pytest.fixture
def guard_repo(tmp_path):
    """A git repo with the cache module and one sensitive source file."""
    repo = tmp_path / "repo"
    (repo / "src/repro/analysis").mkdir(parents=True)
    (repo / "src/repro/sim").mkdir(parents=True)
    cache = repo / "src/repro/analysis/cache.py"
    cache.write_text('CODE_VERSION = "1"\n')
    sim = repo / "src/repro/sim/runner.py"
    sim.write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "-c", "user.email=t@t", "-c", "user.name=t", "add", ".")
    _git(repo, "-c", "user.email=t@t", "-c", "user.name=t",
         "commit", "-q", "-m", "base")
    return repo, cache, sim


class TestCodeVersionGuard:
    def test_clean_tree_passes(self, guard_repo):
        repo, _, _ = guard_repo
        assert check_code_version_bump(repo, "HEAD") == []

    def test_sim_change_without_bump_fails(self, guard_repo):
        repo, _, sim = guard_repo
        sim.write_text("x = 2\n")
        findings = check_code_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["CACHE002"]
        assert "CODE_VERSION" in findings[0].message

    def test_sim_change_with_bump_passes(self, guard_repo):
        repo, cache, sim = guard_repo
        sim.write_text("x = 2\n")
        cache.write_text('CODE_VERSION = "2"\n')
        assert check_code_version_bump(repo, "HEAD") == []

    def test_non_sensitive_change_needs_no_bump(self, guard_repo):
        repo, _, _ = guard_repo
        (repo / "README.md").write_text("docs only\n")
        _git(repo, "add", ".")
        assert check_code_version_bump(repo, "HEAD") == []

    def test_bad_base_ref_degrades_to_finding(self, guard_repo):
        repo, _, _ = guard_repo
        findings = check_code_version_bump(repo, "no-such-ref")
        assert [f.rule_id for f in findings] == ["CACHE002"]
        assert "could not run" in findings[0].message

    def test_unreadable_cache_module_degrades_to_finding(self, guard_repo):
        """A wrong repo path (or deleted cache module) must be loud, not
        a silent pass of the guard."""
        repo, cache, sim = guard_repo
        sim.write_text("x = 2\n")
        cache.unlink()
        findings = check_code_version_bump(repo, "HEAD")
        assert [f.rule_id for f in findings] == ["CACHE002"]
        assert "cannot read CODE_VERSION" in findings[0].message

    def test_resolve_repo_root_finds_toplevel_from_subdirectory(self, guard_repo):
        repo, _, _ = guard_repo
        root = resolve_repo_root(repo / "src/repro/sim")
        assert root.resolve() == repo.resolve()


class TestCli:
    def _run(self, *argv: str) -> tuple[int, str]:
        import contextlib
        import io

        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["lint", *argv])
        return code, out.getvalue()

    def test_clean_file_exits_zero(self, tmp_path):
        path = _write(tmp_path, "x = 1\n")
        code, _ = self._run(str(path))
        assert code == 0

    def test_error_findings_exit_one(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        code, out = self._run(str(path))
        assert code == 1
        assert "DET003" in out

    def test_warning_only_findings_exit_zero(self, tmp_path):
        """WARNING-severity findings are reported but non-fatal: only
        error severity fails the exit-code contract."""
        path = _write(tmp_path, "def wait(timeout=30):\n    return timeout\n")
        code, out = self._run(str(path))
        assert "UNIT002" in out
        assert code == 0

    def test_unknown_rule_exits_two(self, tmp_path):
        path = _write(tmp_path, "x = 1\n")
        code, _ = self._run(str(path), "--select", "NOPE999")
        assert code == 2

    def test_json_format(self, tmp_path):
        path = _write(tmp_path, "import time\nx = time.time()\n")
        code, out = self._run(str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["schema"] == 1

    def test_list_rules(self, tmp_path):
        code, out = self._run("--list-rules")
        assert code == 0
        assert "DET003" in out and "OBS002" in out


def test_tree_is_lint_clean():
    """Tier-1 gate: zero unsuppressed findings over the whole package,
    and every suppression in the tree names a rule id."""
    package = Path(repro.__file__).parent
    result = lint([package])
    assert result.files_checked > 50
    assert not result.findings, "\n".join(
        f"{f.location()}: {f.rule_id} {f.message}" for f in result.findings)
    # The suppressions that exist are the audited, documented ones.
    assert all(f.rule_id != "LINT000" for f in result.suppressed)


def test_code_version_was_bumped_for_this_change():
    """PDC emits a ``pdc_period`` event at every period boundary, so an
    observed PDC run's events (and its digest) change; unobserved
    results are byte-identical. policies/pdc.py is semantics-bearing,
    so the guard demands a bump."""
    assert CODE_VERSION == "2026.08-14"
