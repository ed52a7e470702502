"""Tests for the golden recipes and the result digest that pins them."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.parallel import run_spec
from repro.cli import main
from repro.perf.digest import result_digest, strip_runtime
from repro.perf.scenarios import golden_specs


class TestScenarios:
    def test_golden_specs_have_stable_names(self):
        assert sorted(golden_specs()) == [
            "golden-base", "golden-faults", "golden-flashcrowd",
            "golden-hibernator", "golden-imported", "golden-nosamples",
            "golden-observed", "golden-writeburst",
        ]

    def test_perf_command_only_writes_golden_pins(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        assert "--write-golden" in capsys.readouterr().err


class TestDigest:
    def test_strip_runtime_removes_only_runtime_keys(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        stripped = strip_runtime(result)
        assert not any(k.startswith("runtime_") for k in stripped.extras)
        kept = {k for k in result.extras if not k.startswith("runtime_")}
        assert set(stripped.extras) == kept

    def test_digest_ignores_wall_clock_extras(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        jittered = dataclasses.replace(
            result, extras={**result.extras, "runtime_wall_s": 123.0}
        )
        assert result_digest(jittered) == result_digest(result)

    def test_digest_sees_real_metric_changes(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        changed = dataclasses.replace(result, energy_joules=result.energy_joules + 1.0)
        assert result_digest(changed) != result_digest(result)
