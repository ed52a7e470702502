"""Fault-injection tests: plans, the injector, retry, and rebuild wiring."""

from __future__ import annotations

import dataclasses

import pytest

from repro.disks.scheduling import RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DiskFailure,
    FaultPlan,
    SlowDiskFault,
    TransientFault,
    fault_plan_from_dict,
    fault_plan_to_dict,
    load_fault_plan,
    save_fault_plan,
)
from repro.obs.events import DiskFailed, OpRetried, RebuildProgress, RequestFailed
from repro.policies.always_on import AlwaysOnPolicy
from repro.sim.runner import ArraySimulation
from tests.conftest import poisson_trace

#: Extras keys that legitimately differ between identical runs.
_WALL_CLOCK_KEYS = ("runtime_wall_s", "runtime_events_per_s")


def _fingerprint(result):
    extras = {k: v for k, v in result.extras.items() if k not in _WALL_CLOCK_KEYS}
    return (
        result.energy_joules,
        result.mean_response_s,
        result.p95_response_s,
        result.max_response_s,
        result.num_requests,
        result.failed_requests,
        sorted(extras.items()),
    )


def _raid_config(small_config):
    return dataclasses.replace(small_config, raid5=True, slots_override=40)


def _two_failure_plan():
    return FaultPlan(disk_failures=(
        DiskFailure(time_s=5.0, disk=1),
        DiskFailure(time_s=20.0, disk=2),
    ))


class TestPlanValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            TransientFault(start_s=0.0, end_s=1.0, probability=1.5)

    def test_inverted_window(self):
        with pytest.raises(ValueError):
            TransientFault(start_s=5.0, end_s=1.0, probability=0.5)

    def test_slow_factor_below_one(self):
        with pytest.raises(ValueError):
            SlowDiskFault(start_s=0.0, end_s=1.0, factor=0.5)

    def test_negative_failure_time(self):
        with pytest.raises(ValueError):
            DiskFailure(time_s=-1.0, disk=0)

    def test_duplicate_disk_failure(self):
        with pytest.raises(ValueError):
            FaultPlan(disk_failures=(
                DiskFailure(time_s=1.0, disk=0),
                DiskFailure(time_s=2.0, disk=0),
            ))

    def test_rebuild_inflight_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(rebuild_max_inflight=0)

    def test_retry_policy_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(disk_failures=(DiskFailure(time_s=1.0, disk=0),)).empty
        # Tweaking only reaction knobs keeps the plan empty.
        assert FaultPlan(rebuild=False, seed=99).empty


class TestPlanJson:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            disk_failures=(DiskFailure(time_s=10.0, disk=2),),
            transient_faults=(
                TransientFault(start_s=1.0, end_s=9.0, probability=0.25, disks=(0, 3)),
            ),
            slow_disk_faults=(SlowDiskFault(start_s=0.0, end_s=30.0, factor=2.5),),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.002),
            rebuild_max_inflight=3,
            seed=77,
        )
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_dict_round_trip(self):
        plan = _two_failure_plan()
        assert fault_plan_from_dict(fault_plan_to_dict(plan)) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan keys"):
            fault_plan_from_dict({"disk_falures": []})

    @pytest.mark.parametrize("plan, where", [
        ({"disk_failures": [{"time_s": 1.0, "disk": 0, "disks": [0]}]}, r"disk_failures\[0\]"),
        ({"transient_faults": [
            {"start_s": 0.0, "end_s": 5.0, "probability": 0.1},
            {"start_s": 0, "end_s": 10, "probability": 0.5, "disk": [0]},
        ]}, r"transient_faults\[1\]"),
        ({"slow_disk_faults": [{"start_s": 0, "end_s": 10, "factor": 2.0, "disk": [0]}]},
         r"slow_disk_faults\[0\]"),
        ({"retry": {"max_attempts": 2, "backof_s": 0.01}}, "retry"),
    ], ids=["failure", "transient-disk-typo", "slow-disk-typo", "retry"])
    def test_unknown_entry_key_rejected(self, plan, where):
        """A misspelt ``disks`` must not widen a window to every disk."""
        with pytest.raises(ValueError, match=rf"unknown {where} keys \[.*\]; known: \["):
            fault_plan_from_dict(plan)

    @pytest.mark.parametrize("plan, message", [
        ({"disk_failures": [{"disk": 0}]}, r"disk_failures\[0\] is missing keys \['time_s'\]"),
        ({"transient_faults": ["not an object"]}, r"transient_faults\[0\] must be a JSON object"),
        ({"slow_disk_faults": {"start_s": 0}}, "slow_disk_faults must be a list"),
        ({"retry": [3]}, "retry must be a JSON object"),
        ({"transient_faults": [{"start_s": 0, "end_s": 1, "probability": 0.1, "disks": 3}]},
         r"transient_faults\[0\]\.disks must be a list"),
    ], ids=["missing-key", "entry-not-object", "section-not-list", "retry-not-object",
            "disks-not-list"])
    def test_malformed_entries_are_value_errors(self, plan, message):
        with pytest.raises(ValueError, match=message):
            fault_plan_from_dict(plan)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_fault_plan(path)

    @pytest.mark.parametrize("plan, field", [
        ({"disk_failures": [{"time_s": True, "disk": 0}]}, "time_s"),
        ({"disk_failures": [{"time_s": "1", "disk": 0}]}, "time_s"),
        ({"disk_failures": [{"time_s": float("nan"), "disk": 0}]}, "time_s"),
        ({"transient_faults": [{"start_s": "1", "end_s": 9.0, "probability": 0.1}]}, "start_s"),
        ({"transient_faults": [{"start_s": 0.0, "end_s": float("inf"), "probability": 0.1}]},
         "end_s"),
        ({"transient_faults": [{"start_s": 0.0, "end_s": 9.0, "probability": True}]},
         "probability"),
        ({"slow_disk_faults": [{"start_s": 0.0, "end_s": 9.0, "factor": float("nan")}]},
         "factor"),
        ({"retry": {"max_attempts": 2.5}}, "max_attempts"),
        ({"retry": {"max_attempts": True}}, "max_attempts"),
        ({"retry": {"backoff_s": "0.01"}}, "backoff_s"),
        ({"retry": {"backoff_multiplier": float("inf")}}, "backoff_multiplier"),
    ], ids=["time-bool", "time-string", "time-nan", "start-string", "end-inf",
            "probability-bool", "factor-nan", "attempts-float", "attempts-bool",
            "backoff-string", "multiplier-inf"])
    def test_numbers_are_checked_not_coerced(self, plan, field):
        with pytest.raises(ValueError, match=field):
            fault_plan_from_dict(plan)

    def test_json_integers_are_read_as_floats(self):
        plan = fault_plan_from_dict({
            "disk_failures": [{"time_s": 5, "disk": 0}],
            "slow_disk_faults": [{"start_s": 0, "end_s": 9, "factor": 2}],
            "retry": {"max_attempts": 2, "backoff_s": 0, "backoff_multiplier": 1},
        })
        assert plan == fault_plan_from_dict({
            "disk_failures": [{"time_s": 5.0, "disk": 0}],
            "slow_disk_faults": [{"start_s": 0.0, "end_s": 9.0, "factor": 2.0}],
            "retry": {"max_attempts": 2, "backoff_s": 0.0, "backoff_multiplier": 1.0},
        })
        assert type(plan.disk_failures[0].time_s) is float
        assert type(plan.retry.backoff_s) is float

    def test_nan_in_a_faults_file_is_refused(self, tmp_path):
        """``json.load`` accepts a bare NaN literal; the plan must not."""
        path = tmp_path / "plan.json"
        path.write_text('{"disk_failures": [{"time_s": NaN, "disk": 0}]}\n')
        with pytest.raises(ValueError, match="time_s must be a finite number"):
            load_fault_plan(path)


class TestEmptyPlanIdentity:
    def test_empty_plan_matches_no_plan(self, small_config):
        """faults=FaultPlan() must be byte-identical to faults=None:
        same metrics AND the same extras key set (no fault gauges)."""
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        config = _raid_config(small_config)
        plain = ArraySimulation(trace, config, AlwaysOnPolicy()).run()
        empty = ArraySimulation(trace, config, AlwaysOnPolicy(),
                                faults=FaultPlan()).run()
        assert _fingerprint(plain) == _fingerprint(empty)
        assert set(plain.extras) == set(empty.extras)

    def test_empty_plan_installs_nothing(self, small_config):
        trace = poisson_trace(rate=30.0, duration=5.0, seed=11)
        sim = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                              faults=FaultPlan())
        sim.run()
        assert sim.injector is None
        assert all(d.fault_state is None for d in sim.array.disks)


class TestInjector:
    def test_disk_failure_out_of_range(self, small_config):
        trace = poisson_trace(rate=30.0, duration=5.0, seed=11)
        plan = FaultPlan(disk_failures=(DiskFailure(time_s=1.0, disk=9),))
        sim = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                              faults=plan)
        with pytest.raises(ValueError, match="fails disk 9"):
            sim.run()

    def test_double_install_rejected(self, small_config):
        trace = poisson_trace(rate=30.0, duration=5.0, seed=11)
        sim = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy())
        injector = FaultInjector(sim.engine, sim.array,
                                 FaultPlan(disk_failures=(DiskFailure(1.0, 0),)))
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()

    def test_failure_emits_event_and_rebuilds(self, small_config):
        trace = poisson_trace(rate=30.0, duration=60.0, seed=11)
        plan = FaultPlan(disk_failures=(DiskFailure(time_s=5.0, disk=1),))
        result = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                                 faults=plan, observe=True).run()
        failed = [e for e in result.events if isinstance(e, DiskFailed)]
        assert len(failed) == 1
        assert failed[0].disk == 1 and failed[0].extents_exposed == 20
        progress = [e for e in result.events if isinstance(e, RebuildProgress)]
        assert progress and progress[-1].rebuilt == progress[-1].total == 20
        assert progress[-1].unplaced == 0
        assert result.extras["fault_failures_injected"] == 1
        assert result.extras["fault_rebuilt_extents"] == 20
        assert result.extras["fault_unplaced_extents"] == 0
        assert result.failed_requests == 0  # RAID-5 covers the window

    def test_two_failures_both_rebuilt(self, small_config):
        trace = poisson_trace(rate=30.0, duration=90.0, seed=11)
        result = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                                 faults=_two_failure_plan()).run()
        assert result.extras["fault_failures_injected"] == 2
        assert result.extras["fault_unplaced_extents"] == 0
        assert result.extras["fault_rebuilt_extents"] >= 40

    def test_rebuild_can_be_disabled(self, small_config):
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        plan = FaultPlan(disk_failures=(DiskFailure(time_s=5.0, disk=1),),
                         rebuild=False)
        sim = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                              faults=plan)
        result = sim.run()
        assert sim.injector is not None
        assert sim.injector.rebuild_manager is None
        assert "fault_rebuilt_extents" not in result.extras
        assert len(sim.array.extent_map.extents_on(1)) == 20  # still exposed


class TestTransientFaults:
    def test_retries_emit_events_and_count(self, small_config):
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        plan = FaultPlan(
            transient_faults=(TransientFault(start_s=0.0, end_s=30.0,
                                             probability=0.3),),
            retry=RetryPolicy(max_attempts=6, backoff_s=0.001),
        )
        result = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                                 faults=plan, observe=True).run()
        retried = [e for e in result.events if isinstance(e, OpRetried)]
        assert retried
        assert all(e.backoff_s > 0 and e.attempt >= 1 for e in retried)
        assert result.extras["fault_op_retries"] == len(retried)
        assert result.extras["fault_op_errors"] >= result.extras["fault_op_retries"]

    def test_exhaustion_fails_the_request(self, small_config):
        """Certain errors with a tiny retry budget must surface as failed
        requests plus request_failed trace events — never hang or crash."""
        trace = poisson_trace(rate=20.0, duration=10.0, seed=11)
        plan = FaultPlan(
            transient_faults=(TransientFault(start_s=0.0, end_s=1e9,
                                             probability=1.0),),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
        )
        result = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                                 faults=plan, observe=True).run()
        assert result.failed_requests == len(trace) > 0
        assert result.num_requests == 0  # nothing completed successfully
        failed_events = [e for e in result.events if isinstance(e, RequestFailed)]
        assert len(failed_events) == result.failed_requests

    def test_scoped_window_only_hits_named_disks(self, small_config):
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        plan = FaultPlan(
            transient_faults=(TransientFault(start_s=0.0, end_s=30.0,
                                             probability=0.5, disks=(2,)),),
        )
        sim = ArraySimulation(trace, _raid_config(small_config), AlwaysOnPolicy(),
                              faults=plan)
        sim.run()
        assert sim.array.disks[2].op_errors > 0
        for disk in (0, 1, 3):
            assert sim.array.disks[disk].op_errors == 0


class TestSlowDisk:
    def test_slow_window_inflates_response_time(self, small_config):
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        config = _raid_config(small_config)
        plain = ArraySimulation(trace, config, AlwaysOnPolicy()).run()
        plan = FaultPlan(slow_disk_faults=(SlowDiskFault(start_s=0.0, end_s=30.0,
                                                         factor=4.0),))
        slow = ArraySimulation(trace, config, AlwaysOnPolicy(), faults=plan).run()
        assert slow.mean_response_s > plain.mean_response_s
        assert slow.failed_requests == 0  # sick, not dead


class TestDeterminism:
    def test_fault_runs_repeat_exactly(self, small_config):
        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        config = _raid_config(small_config)
        plan = FaultPlan(
            disk_failures=(DiskFailure(time_s=5.0, disk=1),),
            transient_faults=(TransientFault(start_s=0.0, end_s=30.0,
                                             probability=0.2),),
            slow_disk_faults=(SlowDiskFault(start_s=0.0, end_s=30.0, factor=1.5,
                                            disks=(0,)),),
        )
        first = ArraySimulation(trace, config, AlwaysOnPolicy(), faults=plan).run()
        second = ArraySimulation(trace, config, AlwaysOnPolicy(), faults=plan).run()
        assert _fingerprint(first) == _fingerprint(second)

    def test_parallel_matches_serial(self):
        """jobs=2 workers must reproduce jobs=1 byte for byte even with
        faults in play (the RNG lives in the spec, not the process)."""
        from repro.analysis.experiments import default_array_config
        from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
        from repro.traces.synthetic import SyntheticConfig

        config = default_array_config(num_disks=4, num_extents=80, raid5=True)
        plan = FaultPlan(
            disk_failures=(DiskFailure(time_s=5.0, disk=1),),
            transient_faults=(TransientFault(start_s=0.0, end_s=20.0,
                                             probability=0.2),),
        )
        trace_spec = TraceSpec.from_generator(
            "synthetic", SyntheticConfig(duration=30.0, rate=30.0,
                                         num_extents=80, seed=5))
        specs = [
            RunSpec(trace=trace_spec, array=config,
                    policy=PolicySpec.named("base"), faults=plan),
            RunSpec(trace=trace_spec, array=config,
                    policy=PolicySpec.named("tpm"), faults=plan),
        ]
        serial = [_fingerprint(r) for r in execute(specs, jobs=1)]
        parallel = [_fingerprint(r) for r in execute(specs, jobs=2)]
        assert serial == parallel


class TestPolicyReaction:
    def test_hibernator_survives_failures_and_counts_them(self, small_config):
        from repro.core.hibernator import HibernatorConfig, HibernatorPolicy

        trace = poisson_trace(rate=30.0, duration=90.0, seed=11)
        config = _raid_config(small_config)
        policy = HibernatorPolicy(HibernatorConfig(epoch_seconds=20.0))
        result = ArraySimulation(trace, config, policy, goal_s=0.1,
                                 faults=_two_failure_plan()).run()
        assert result.extras["disk_failures"] == 2
        assert result.extras["fault_unplaced_extents"] == 0

    def test_maid_serves_through_cache_disk_failure(self, small_config):
        """Failing a MAID cache disk must not crash the run: cache hits
        redirected to the dead disk fall back to the home copy and
        background cache fills are delivered as failed ops (regression:
        ``array.submit`` / ``submit_background_op`` used to raise
        ``disk 0 has failed; route around it``)."""
        from repro.policies.maid import MaidConfig, MaidPolicy, maid_array_config

        trace = poisson_trace(rate=40.0, duration=60.0, seed=13)
        config = maid_array_config(_raid_config(small_config), 1)
        plan = FaultPlan(disk_failures=(DiskFailure(time_s=5.0, disk=0),))
        policy = MaidPolicy(MaidConfig(num_cache_disks=1))
        result = ArraySimulation(trace, config, policy, goal_s=0.1,
                                 faults=plan).run()
        assert result.extras["fault_failures_injected"] == 1
        assert result.num_requests > 0
        assert result.failed_requests == 0

    def test_run_comparison_under_faults(self, small_config):
        """``compare --faults`` runs every scheme — failure-unaware ones
        included — through the identical failure scenario."""
        from repro.analysis.experiments import run_comparison

        trace = poisson_trace(rate=20.0, duration=40.0, seed=5)
        plan = FaultPlan(disk_failures=(DiskFailure(time_s=5.0, disk=1),))
        comparison = run_comparison(trace, _raid_config(small_config),
                                    slack=2.0, faults=plan)
        assert set(comparison.results) >= {"Base", "MAID", "Hibernator"}
        for name, result in comparison.results.items():
            assert result.num_requests > 0, name
            assert result.extras["fault_failures_injected"] == 1, name

    def test_fault_free_hibernator_has_no_fault_keys(self, small_config):
        """The lazily-created failure counter and fault gauges must not
        leak into fault-free runs (extras key set is part of the
        byte-identity contract)."""
        from repro.core.hibernator import HibernatorConfig, HibernatorPolicy

        trace = poisson_trace(rate=30.0, duration=30.0, seed=11)
        policy = HibernatorPolicy(HibernatorConfig(epoch_seconds=20.0))
        result = ArraySimulation(trace, _raid_config(small_config), policy,
                                 goal_s=0.1).run()
        assert "disk_failures" not in result.extras
        assert not any(k.startswith("fault_") for k in result.extras)
