"""Unit tests for the experiment harness and reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.energy import joules_to_kwh, mean_watts, savings_fraction
from repro.analysis.experiments import (
    ComparisonResult,
    default_array_config,
    derive_goal,
    run_comparison,
    run_single,
)
from repro.analysis.report import format_kv, format_series, format_table
from repro.core.hibernator import HibernatorConfig
from repro.faults.plan import DiskFailure, FaultPlan
from repro.perf.digest import result_digest
from repro.policies.always_on import AlwaysOnPolicy
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from tests.conftest import poisson_trace


class TestEnergyHelpers:
    def test_joules_to_kwh(self):
        assert joules_to_kwh(3.6e6) == 1.0

    def test_savings_fraction(self):
        assert savings_fraction(50.0, 100.0) == pytest.approx(0.5)
        assert savings_fraction(150.0, 100.0) == pytest.approx(-0.5)
        assert savings_fraction(1.0, 0.0) == 0.0

    def test_mean_watts(self):
        assert mean_watts(100.0, 10.0) == 10.0
        assert mean_watts(100.0, 0.0) == 0.0


class TestDefaultConfig:
    def test_paper_scale_defaults(self):
        cfg = default_array_config()
        assert cfg.num_disks == 24
        assert cfg.num_extents == 2400
        assert cfg.spec.num_levels == 5

    def test_capacity_multiple(self):
        cfg = default_array_config(num_disks=4, num_extents=80, capacity_multiple=4.0)
        assert cfg.slots_per_disk == 80

    def test_speed_levels_parameter(self):
        cfg = default_array_config(num_speed_levels=2)
        assert cfg.spec.rpm_levels == (7500, 15000)


class TestDeriveGoal:
    def test_goal_is_slack_times_base(self, small_config):
        trace = poisson_trace(rate=20.0, duration=30.0, seed=40)
        goal, base = derive_goal(trace, small_config, slack=2.0)
        assert goal == pytest.approx(2.0 * base.mean_response_s)
        assert base.policy_name == "Base"

    def test_slack_below_one_rejected(self, small_config):
        trace = poisson_trace(rate=20.0, duration=10.0, seed=40)
        with pytest.raises(ValueError):
            derive_goal(trace, small_config, slack=0.9)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf")])
    def test_slack_must_be_finite(self, small_config, slack):
        trace = poisson_trace(rate=20.0, duration=10.0, seed=40)
        with pytest.raises(ValueError, match="finite number >= 1"):
            derive_goal(trace, small_config, slack=slack)

    def test_repeated_call_hits_the_cache(self, small_config, tmp_path):
        trace = poisson_trace(rate=20.0, duration=10.0, seed=40)
        cache = ResultCache(tmp_path)
        goal, base = derive_goal(trace, small_config, slack=2.0, cache=cache)
        assert (cache.hits, cache.stores) == (0, 1)
        again, cached = derive_goal(trace, small_config, slack=2.0, cache=cache)
        assert (cache.hits, cache.stores) == (1, 1)
        assert again == goal and result_digest(cached) == result_digest(base)

    def test_given_base_is_not_rerun(self, small_config, tmp_path):
        trace = poisson_trace(rate=20.0, duration=10.0, seed=40)
        cache = ResultCache(tmp_path)
        goal, base = derive_goal(trace, small_config, slack=1.5, cache=cache)
        looser, same = derive_goal(trace, small_config, slack=3.0, cache=cache, base=base)
        assert same is base and looser == 3.0 * base.mean_response_s
        assert (cache.hits, cache.misses) == (0, 1)

    def test_empty_trace_rejected(self, small_config):
        from repro.traces.model import TraceBuilder

        with pytest.raises(ValueError):
            derive_goal(TraceBuilder("e", 80).build(), small_config)


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        config = default_array_config(num_disks=4, num_extents=80, seed=7)
        trace = poisson_trace(rate=30.0, duration=120.0, seed=41)
        return run_comparison(
            trace, config, slack=2.0,
            hibernator_config=HibernatorConfig(epoch_seconds=60.0),
        )

    def test_all_schemes_present(self, comparison):
        assert set(comparison.results) == {
            "Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator",
        }

    def test_base_savings_zero(self, comparison):
        assert comparison.savings("Base") == pytest.approx(0.0)

    def test_rows_render(self, comparison):
        rows = comparison.rows()
        assert len(rows) == 6
        assert all(len(r) == len(ComparisonResult.HEADERS) for r in rows)

    def test_same_trace_same_requests(self, comparison):
        counts = {r.num_requests for r in comparison.results.values()}
        assert len(counts) == 1


#: run_comparison's six runtime-stripped result digests, events included,
#: for the observed RAID-5 comparison with one disk failure below.
_PINNED_COMPARISON = {
    "Base": "b4e9e5c906e97cc5637186541ba72e7336f72f0c14852177bd4c0550d994d0db",
    "TPM": "8695bc6836503ffdeda241d762c9347f89bd2a46ee29069d44a1ee25817c21ca",
    "DRPM": "f13a2a5378c3c921801e0c3f8801e3cf9b662260a493b32c56c15452ea24d4bf",
    "PDC": "7e950fe98ecfb6d0782bf03410acab41fe4cb059caa162ed3697fb55ff54d160",
    "MAID": "d0fa684eb5bd30c0cbcdfb51ad31ad4beb29d3dcdcb13de68d8d47e3d3f0e6b6",
    "Hibernator": "dd32b3bd6efcfb842dd25bc5b3fc542ed2e2d68468dba7b3701e57fd3f65bb41",
}


def test_comparison_digests_are_pinned():
    """The paper's recipe end to end: Base derives the goal, then every
    scheme of ``comparison_specs`` runs on the same trace, array and
    fault plan. A drift in any scheme's construction, priming, MAID
    placement or event stream moves its digest."""
    trace = generate_synthetic(SyntheticConfig(name="pin", duration=120.0, rate=20.0,
                                               num_extents=80, seed=24))
    comparison = run_comparison(
        trace, default_array_config(num_disks=4, num_extents=80, raid5=True), slack=2.0,
        hibernator_config=HibernatorConfig(epoch_seconds=30.0, migration="sorted"),
        observe=True, faults=FaultPlan(disk_failures=(DiskFailure(time_s=50.0, disk=1),)),
    )
    assert comparison.goal_s == 0.011260870333592665
    assert all(result.events for result in comparison.results.values())
    assert {name: result_digest(result)
            for name, result in comparison.results.items()} == _PINNED_COMPARISON


def test_run_single_passes_window(small_config):
    trace = poisson_trace(rate=20.0, duration=30.0, seed=42)
    result = run_single(trace, small_config, AlwaysOnPolicy(), window_s=10.0)
    assert result.latency_windows


class TestReport:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_format_table_title(self):
        out = format_table(["x"], [["1"]], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_format_table_ragged_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_format_series(self):
        out = format_series("F5", [(1.0, 2.0), (3.0, 4.0)], "slack", "savings")
        assert "slack" in out and "savings" in out
        assert len(out.splitlines()) == 5

    def test_format_kv(self):
        out = format_kv("Disk", [("rpm", "15000"), ("capacity", "36 GB")])
        assert "rpm" in out and "36 GB" in out

