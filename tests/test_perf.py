"""Tests for the perf harness: scenario selection, BENCH documents,
baseline discovery and the regression comparison."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.analysis.parallel import run_spec
from repro.perf.digest import result_digest, strip_runtime
from repro.perf.harness import (
    BENCH_PREFIX,
    BENCH_SCHEMA_VERSION,
    compare_benchmarks,
    find_baseline,
    load_bench,
    run_benchmark,
    write_bench,
)
from repro.perf.scenarios import PERF_SCENARIOS, golden_specs, select_scenarios


class TestScenarios:
    def test_names_are_unique(self):
        names = [s.name for s in PERF_SCENARIOS]
        assert len(names) == len(set(names))

    def test_select_all_by_default(self):
        assert select_scenarios() == PERF_SCENARIOS

    def test_select_quick_subset(self):
        quick = select_scenarios(quick=True)
        assert quick and all(s.quick for s in quick)
        assert len(quick) < len(PERF_SCENARIOS)

    def test_select_by_name_preserves_request_order(self):
        picked = select_scenarios(["cello-base", "synth-base"])
        assert [s.name for s in picked] == ["cello-base", "synth-base"]

    def test_select_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            select_scenarios(["no-such-scenario"])

    def test_specs_are_fresh_objects(self):
        scenario = PERF_SCENARIOS[0]
        assert scenario.spec() is not scenario.spec()

    def test_golden_specs_have_stable_names(self):
        assert sorted(golden_specs()) == [
            "golden-base", "golden-faults", "golden-flashcrowd", "golden-fleet",
            "golden-hibernator", "golden-imported", "golden-nosamples",
            "golden-writeburst",
        ]

    def test_matrix_covers_ingest_and_new_generators(self):
        names = {s.name for s in PERF_SCENARIOS}
        assert len(PERF_SCENARIOS) >= 12
        assert {"imported-msr", "flashcrowd-hibernator", "writeburst-base"} <= names


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


def _bench_doc(**rates: float) -> dict:
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "generated_at": "2026-08-05T00:00:00+00:00",
        "scenarios": {
            name: {"events": 1000, "requests": 500, "wall_s": 1.0,
                   "events_per_s": rate, "requests_per_s": rate / 2.0,
                   "digest": "d"}
            for name, rate in rates.items()
        },
    }


class TestCompare:
    def test_no_regression_at_equal_rates(self):
        lines, regressions = compare_benchmarks(_bench_doc(a=100.0), _bench_doc(a=100.0))
        assert regressions == []
        assert any("1.00x" in line for line in lines)

    def test_regression_below_threshold(self):
        _, regressions = compare_benchmarks(
            _bench_doc(a=80.0), _bench_doc(a=100.0), threshold=0.9
        )
        assert regressions == ["a"]

    def test_threshold_is_configurable(self):
        _, regressions = compare_benchmarks(
            _bench_doc(a=80.0), _bench_doc(a=100.0), threshold=0.75
        )
        assert regressions == []

    def test_new_and_dropped_scenarios_are_reported_not_failed(self):
        lines, regressions = compare_benchmarks(
            _bench_doc(new=50.0), _bench_doc(old=100.0)
        )
        assert regressions == []
        text = "\n".join(lines)
        assert "new scenario" in text and "baseline only" in text
        assert "1 added, 1 removed" in text

    def test_drifted_matrix_still_gates_the_intersection(self):
        """Scenario-set drift (matrix grew a scenario, baseline has one
        the run dropped) must not KeyError — and must not mask a real
        regression in the scenarios both documents share."""
        current = _bench_doc(shared=70.0, brand_new=10.0)
        baseline = _bench_doc(shared=100.0, retired=10.0)
        lines, regressions = compare_benchmarks(current, baseline, threshold=0.9)
        assert regressions == ["shared"]
        text = "\n".join(lines)
        assert "brand_new" in text and "retired" in text
        assert "gated on 1 common" in text

    def test_identical_matrices_report_no_drift(self):
        lines, _ = compare_benchmarks(_bench_doc(a=1.0), _bench_doc(a=1.0))
        assert not any("drift" in line for line in lines)

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_benchmarks(_bench_doc(a=1.0), _bench_doc(a=1.0), threshold=0.0)

    def test_digest_mismatch_same_version_is_a_regression(self):
        current = _bench_doc(a=100.0)
        baseline = _bench_doc(a=100.0)
        current["code_version"] = baseline["code_version"] = "v1"
        baseline["scenarios"]["a"]["digest"] = "something-else"
        lines, regressions = compare_benchmarks(current, baseline)
        assert regressions == ["a"]
        assert "DIGEST MISMATCH" in "\n".join(lines)

    def test_digest_mismatch_across_versions_is_informational(self):
        """A baseline from older code may legitimately differ byte-wise:
        the mismatch must be reported, but must not fail the gate."""
        current = _bench_doc(a=100.0)
        baseline = _bench_doc(a=100.0)
        current["code_version"] = "v2"
        baseline["code_version"] = "v1"
        baseline["scenarios"]["a"]["digest"] = "something-else"
        lines, regressions = compare_benchmarks(current, baseline)
        assert regressions == []
        text = "\n".join(lines)
        assert "code_version drift: baseline v1 -> current v2" in text
        assert "digest drift (informational)" in text
        assert "DIGEST MISMATCH" not in text

    def test_unversioned_documents_never_gate_on_digests(self):
        """Documents predating code_version made no identity promise."""
        current = _bench_doc(a=100.0)
        baseline = _bench_doc(a=100.0)
        baseline["scenarios"]["a"]["digest"] = "something-else"
        lines, regressions = compare_benchmarks(current, baseline)
        assert regressions == []
        text = "\n".join(lines)
        assert "digest drift (informational)" in text
        assert "code_version drift" not in text


class TestBenchFiles:
    def test_write_load_roundtrip(self, tmp_path):
        doc = _bench_doc(a=100.0)
        path = tmp_path / "BENCH_roundtrip.json"
        write_bench(doc, path)
        assert load_bench(path) == doc

    def test_load_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not a BENCH document"):
            load_bench(path)

    def test_find_baseline_picks_newest_generated_at(self, tmp_path):
        older = _bench_doc(a=1.0)
        older["generated_at"] = "2026-08-01T00:00:00+00:00"
        newer = _bench_doc(a=2.0)
        newer["generated_at"] = "2026-08-04T00:00:00+00:00"
        write_bench(older, tmp_path / f"{BENCH_PREFIX}2026-08-01.json")
        write_bench(newer, tmp_path / f"{BENCH_PREFIX}2026-08-04.json")
        assert find_baseline(tmp_path) == tmp_path / f"{BENCH_PREFIX}2026-08-04.json"

    def test_find_baseline_excludes_output_path(self, tmp_path):
        doc = _bench_doc(a=1.0)
        out = tmp_path / f"{BENCH_PREFIX}today.json"
        write_bench(doc, out)
        assert find_baseline(tmp_path, exclude=out) is None

    def test_find_baseline_skips_corrupt_files(self, tmp_path):
        (tmp_path / f"{BENCH_PREFIX}broken.json").write_text("{not json")
        good = _bench_doc(a=1.0)
        write_bench(good, tmp_path / f"{BENCH_PREFIX}good.json")
        assert find_baseline(tmp_path) == tmp_path / f"{BENCH_PREFIX}good.json"

    def test_find_baseline_empty_dir(self, tmp_path):
        assert find_baseline(tmp_path) is None

    def test_find_baseline_tie_breaks_on_filename(self, tmp_path):
        """Equal ``generated_at`` stamps must resolve deterministically:
        the lexicographically last file name wins (documented rule)."""
        doc = _bench_doc(a=1.0)
        doc["generated_at"] = "2026-08-05T00:00:00+00:00"
        write_bench(doc, tmp_path / f"{BENCH_PREFIX}aaa.json")
        write_bench(doc, tmp_path / f"{BENCH_PREFIX}zzz.json")
        assert find_baseline(tmp_path) == tmp_path / f"{BENCH_PREFIX}zzz.json"
        # Creation order must not matter: same answer with the names
        # written the other way round in a fresh directory.
        other = tmp_path / "other"
        other.mkdir()
        write_bench(doc, other / f"{BENCH_PREFIX}zzz.json")
        write_bench(doc, other / f"{BENCH_PREFIX}aaa.json")
        assert find_baseline(other) == other / f"{BENCH_PREFIX}zzz.json"

    def test_find_baseline_newer_stamp_beats_filename(self, tmp_path):
        older = _bench_doc(a=1.0)
        older["generated_at"] = "2026-08-01T00:00:00+00:00"
        newer = _bench_doc(a=2.0)
        newer["generated_at"] = "2026-08-04T00:00:00+00:00"
        # The newest stamp wins even when its file name sorts first.
        write_bench(newer, tmp_path / f"{BENCH_PREFIX}aaa.json")
        write_bench(older, tmp_path / f"{BENCH_PREFIX}zzz.json")
        assert find_baseline(tmp_path) == tmp_path / f"{BENCH_PREFIX}aaa.json"


class TestRunBenchmark:
    def test_benchmark_records_throughput_and_digest(self):
        # One tiny scenario, one repeat: this is a schema test, not a
        # performance test.
        scenario = select_scenarios(["synth-base"])[0]
        doc = run_benchmark((scenario,), repeats=1)
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["repeats"] == 1
        record = doc["scenarios"]["synth-base"]
        assert record["events"] > 0
        assert record["requests"] > 0
        assert record["wall_s"] > 0
        assert math.isclose(
            record["events_per_s"], record["events"] / record["wall_s"]
        )
        assert len(record["digest"]) == 64
        json.dumps(doc)  # must be serializable as-is

    def test_benchmark_rejects_bad_repeats(self):
        scenario = select_scenarios(["synth-base"])[0]
        with pytest.raises(ValueError, match="repeats"):
            run_benchmark((scenario,), repeats=0)

    def test_fleet_scenario_produces_a_record(self):
        scenario = select_scenarios(["fleet-small"])[0]
        assert scenario.fleet
        doc = run_benchmark((scenario,), repeats=1)
        record = doc["scenarios"]["fleet-small"]
        assert record["events"] > 0 and record["requests"] > 0
        assert len(record["digest"]) == 64

    def test_nondeterministic_scenarios_are_all_reported(self):
        """One flaky scenario must not abort the matrix: every scenario
        runs, and the error names every offender at once."""

        class _FlakySpec:
            # Distinct extras per run -> distinct digest per repeat.
            def __init__(self):
                _FlakySpec.counter += 1
                self.tick = _FlakySpec.counter

        _FlakySpec.counter = 0

        @dataclasses.dataclass(frozen=True)
        class _Stub:
            name: str
            flaky: bool

            def spec(self):
                real = golden_specs()["golden-nosamples"]
                if not self.flaky:
                    return real
                tick = _FlakySpec().tick
                return dataclasses.replace(
                    real, goal_s=0.001 * tick)  # different spec each repeat

        scenarios = (
            _Stub("flaky-a", True),
            _Stub("steady", False),
            _Stub("flaky-b", True),
        )
        with pytest.raises(RuntimeError) as err:
            run_benchmark(scenarios, repeats=2)
        message = str(err.value)
        assert "flaky-a" in message and "flaky-b" in message
        assert "steady" not in message
