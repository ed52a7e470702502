"""Tests for the observability layer (repro.obs).

Three properties matter and are pinned here:

1. **zero-overhead-when-disabled** — a run with ``observe=False`` (the
   default) produces results identical to the pre-observability
   simulator, and no event objects at all;
2. **exactness** — the event stream reconciles exactly with the
   counters the result reports (spinups, speed changes, migrated
   extents, boost seconds, failures) and with every policy counter,
   for any policy, at any ``jobs``;
3. **portability** — events survive dict/JSONL round-trips, pickling
   (parallel workers, the result cache), and concatenation of many
   runs into one file.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import pytest

from repro.analysis.experiments import run_comparison, run_single
from repro.analysis.parallel import POLICY_FACTORIES, PolicySpec, RunSpec, TraceSpec
from repro.core.hibernator import HibernatorConfig, HibernatorPolicy
from repro.faults.plan import DiskFailure, FaultPlan, TransientFault
from repro.obs.events import (
    EVENT_TYPES,
    BoostEnter,
    BoostExit,
    EpochBoundary,
    MigrationMove,
    MigrationPlanned,
    RunEnd,
    RunStart,
    SpeedTransition,
    event_from_dict,
    event_to_dict,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.summary import reconcile, render_run, render_runs
from repro.obs.tracelog import TraceLog, read_jsonl, split_runs, write_jsonl
from repro.perf.scenarios import golden_specs
from repro.policies.always_on import AlwaysOnPolicy
from repro.sim.runner import ArraySimulation, SimulationResult
from tests.conftest import poisson_trace


def observed_hibernator_run(small_config, goal_s=0.2, seed=11):
    trace = poisson_trace(rate=30.0, duration=120.0, seed=seed)
    policy = HibernatorPolicy(HibernatorConfig(epoch_seconds=30.0))
    return run_single(trace, small_config, policy, goal_s=goal_s, observe=True)


#: Periods short enough that every policy's control loop fires inside
#: the two-minute reconciliation trace (the defaults are an hour).
_RECONCILE_PARAMS = {
    "hibernator": {"epoch_seconds": 30.0},
    "pdc": {"period_s": 30.0},
    "oracle": {"epoch_seconds": 30.0},
}

#: One whole-disk failure plus a transient error window.
_RECONCILE_FAULTS = FaultPlan(
    disk_failures=(DiskFailure(time_s=45.0, disk=1),),
    transient_faults=(TransientFault(start_s=20.0, end_s=60.0, probability=0.05),),
)

#: Every counter the policies register; each must be non-zero in at
#: least one of the runs below.
_POLICY_COUNTERS = {"epochs", "infeasible_epochs", "planned_moves", "boosts",
                    "disk_failures", "pdc_periods"}


def _finished_simulation(spec: RunSpec) -> tuple[ArraySimulation, SimulationResult]:
    """Run ``spec`` as ``run_spec`` does, keeping the simulation so its
    registries (and its policy's) can be read afterwards."""
    trace = spec.trace.build()
    policy, array_config = spec.policy.build(trace, spec.array)
    sim = ArraySimulation(
        trace=trace, array_config=array_config, policy=policy,
        goal_s=spec.goal_s, window_s=spec.window_s,
        keep_latency_samples=spec.keep_latency_samples,
        observe=spec.observe, faults=spec.faults,
    )
    return sim, sim.run()


def _reconciliation_runs(small_config):
    """(label, simulation, result) for every run the counter
    reconciliation covers, each observed."""
    trace = TraceSpec.from_trace(poisson_trace(rate=30.0, duration=120.0, seed=11))
    # At a 12 ms goal Hibernator migrates, and boosts once the failure
    # slows the array down.
    for name in POLICY_FACTORIES:
        policy = PolicySpec.named(name, **_RECONCILE_PARAMS.get(name, {}))
        for faults in (None, _RECONCILE_FAULTS):
            spec = RunSpec(trace=trace, array=small_config, policy=policy,
                           goal_s=0.012, observe=True, faults=faults)
            yield (name if faults is None else f"{name}+faults",
                   *_finished_simulation(spec))
    # At 5 ms no configuration is predicted to meet the goal.
    infeasible = RunSpec(trace=trace, array=small_config,
                         policy=PolicySpec.named("hibernator", epoch_seconds=30.0),
                         goal_s=0.005, observe=True)
    yield ("hibernator-infeasible", *_finished_simulation(infeasible))
    yield ("golden-observed", *_finished_simulation(golden_specs()["golden-observed"]))
    # PDC's periods outlast its migrations here: once the hot set sits
    # on disk 0, a period plans no moves and starts no migration.
    pdc = RunSpec(
        trace=TraceSpec.from_trace(poisson_trace(
            rate=15.0, duration=600.0, num_extents=80, zipf_theta=2.5, seed=11)),
        array=dataclasses.replace(small_config, slots_override=80),
        policy=PolicySpec.named("pdc", period_s=100.0, max_moves_per_period=200,
                                spindown_threshold_s=30.0),
        observe=True,
    )
    yield ("pdc-empty-periods", *_finished_simulation(pdc))


class TestEvents:
    def test_registry_covers_all_kinds(self):
        expected = {
            "run_start", "run_end", "epoch", "boost_enter", "boost_exit",
            "speed_transition", "pdc_period", "migration_planned", "migration_move",
            "migration_cancelled", "request_failed",
        }
        assert expected <= set(EVENT_TYPES)

    def test_dict_round_trip(self):
        event = EpochBoundary(
            time=600.0, epoch_index=1, configuration="2@15000+6@6000",
            tier_speeds=(15000, 6000), tier_counts=(2, 6), heat_total=12.5,
            predicted_response_s=0.012, predicted_energy_joules=4000.0,
            feasible=True, planned_moves=17, boosted=False,
            epoch_seconds=600.0,
        )
        data = event_to_dict(event)
        assert data["event"] == "epoch"
        assert data["tier_speeds"] == [15000, 6000]  # JSON-safe list
        assert event_from_dict(data) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"event": "nope", "time": 0.0})

    def test_speed_transition_classification(self):
        up = SpeedTransition(time=1.0, disk=0, from_rpm=0, to_rpm=6000)
        down = SpeedTransition(time=1.0, disk=0, from_rpm=6000, to_rpm=0)
        shift = SpeedTransition(time=1.0, disk=0, from_rpm=6000, to_rpm=15000)
        assert up.is_spinup and not up.is_speed_change
        assert down.is_spindown and not down.is_speed_change
        assert shift.is_speed_change and not shift.is_spinup

    def test_events_are_immutable_and_picklable(self):
        event = BoostEnter(time=5.0, deficit_s=0.4)
        with pytest.raises(Exception):
            event.time = 9.0  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(event)) == event


class TestTraceLog:
    def test_emit_and_filter(self):
        log = TraceLog()
        log.emit(BoostEnter(time=1.0, deficit_s=0.1))
        log.emit(BoostExit(time=2.0, deficit_s=-0.1, boost_seconds_total=1.0))
        log.emit(BoostEnter(time=3.0, deficit_s=0.2))
        assert len(log) == 3
        assert [e.time for e in log] == [1.0, 2.0, 3.0]
        assert len(log.of_kind("boost_enter")) == 2
        assert log.of_kind(BoostExit)[0].boost_seconds_total == 1.0

    def test_jsonl_round_trip(self):
        events = [
            BoostEnter(time=1.0, deficit_s=0.1),
            SpeedTransition(time=2.0, disk=3, from_rpm=0, to_rpm=12000),
            MigrationMove(time=3.0, extent=7, from_disk=1, to_disk=2),
        ]
        buf = io.StringIO()
        assert write_jsonl(events, buf) == 3
        buf.seek(0)
        assert read_jsonl(buf) == events

    def test_read_jsonl_reports_bad_line(self):
        # A malformed line with valid lines after it is corruption, not a
        # torn write: it still raises with the line number.
        buf = io.StringIO(
            'not json\n'
            '{"event": "boost_enter", "time": 1.0, "deficit_s": 0.0}\n'
        )
        with pytest.raises(ValueError, match="line 1"):
            read_jsonl(buf)

    def test_read_jsonl_refuses_a_lone_line_that_is_no_json_object(self):
        # Every line the writer emits is one JSON object, so only a final
        # line starting with "{" can be a torn write. A file whose only
        # line is a CSV header is no event trace at all.
        with pytest.raises(ValueError, match="bad trace line 1"):
            read_jsonl(io.StringIO("time,kind,extent,offset,size\n"))

    def test_read_jsonl_skips_torn_last_line(self):
        # A final line that is not valid JSON is the signature of a write
        # interrupted mid-line (crash, SIGKILL); the intact prefix stays
        # readable and the tail is skipped with a warning.
        buf = io.StringIO(
            '{"event": "boost_enter", "time": 1.0, "deficit_s": 0.0}\n'
            '{"event": "boost_exit", "time": 2.0, "defi'
        )
        with pytest.warns(UserWarning, match="torn final trace line 2"):
            events = read_jsonl(buf)
        assert [e.kind for e in events] == ["boost_enter"]

    def test_read_jsonl_semantic_bad_last_line_still_raises(self):
        # Valid JSON with an unknown kind is schema drift, not a torn
        # write — it must not be silently skipped.
        buf = io.StringIO(
            '{"event": "boost_enter", "time": 1.0, "deficit_s": 0.0}\n'
            '{"event": "nope", "time": 2.0}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(buf)

    def test_nan_field_round_trips_as_null(self):
        # Empty latency windows produce NaN gauges; strict JSON has no
        # NaN literal, so the writer must emit null and the reader must
        # restore NaN for float-typed fields.
        import math

        events = [BoostEnter(time=1.0, deficit_s=float("nan"))]
        buf = io.StringIO()
        write_jsonl(events, buf)
        text = buf.getvalue()
        assert "NaN" not in text and "null" in text
        buf.seek(0)
        (back,) = read_jsonl(buf)
        assert isinstance(back, BoostEnter)
        assert math.isnan(back.deficit_s)

    def test_optional_float_field_keeps_null(self):
        # goal_s is declared `float | None`: a null there means "no
        # goal", not a sanitized NaN, and must stay None on read.
        event = RunStart(time=0.0, trace_name="t", policy_name="A",
                         policy_params="", goal_s=None, num_disks=2,
                         num_extents=8, initial_rpm=(15000, 15000))
        buf = io.StringIO()
        write_jsonl([event], buf)
        buf.seek(0)
        (back,) = read_jsonl(buf)
        assert back.goal_s is None

    def test_jsonl_writer_incremental(self, tmp_path):
        from repro.obs.tracelog import JsonlWriter

        path = tmp_path / "incr.jsonl"
        with JsonlWriter(path) as writer:
            writer.write(BoostEnter(time=1.0, deficit_s=0.1))
            writer.flush()
            # Flushed lines are complete and readable mid-run.
            with open(path) as fh:
                assert read_jsonl(fh) == [BoostEnter(time=1.0, deficit_s=0.1)]
            writer.write(BoostExit(time=2.0, deficit_s=-0.1, boost_seconds_total=1.0))
        assert writer.lines == 2
        writer.close()  # idempotent
        with open(path) as fh:
            assert len(read_jsonl(fh)) == 2
        with pytest.raises(ValueError):
            writer.write(BoostEnter(time=3.0, deficit_s=0.0))

    def test_split_runs(self):
        a = RunStart(time=0.0, trace_name="t", policy_name="A", policy_params="",
                     goal_s=None, num_disks=2, num_extents=8, initial_rpm=(15000, 15000))
        b = RunStart(time=0.0, trace_name="t", policy_name="B", policy_params="",
                     goal_s=None, num_disks=2, num_extents=8, initial_rpm=(15000, 15000))
        mid = BoostEnter(time=1.0, deficit_s=0.1)
        runs = split_runs([a, mid, b])
        assert len(runs) == 2
        assert runs[0] == [a, mid]
        assert runs[1] == [b]
        # Events before any run_start form their own leading chunk.
        assert split_runs([mid, a]) == [[mid], [a]]
        assert split_runs([]) == []


class TestMetricsRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.0)
        assert reg.counter("x") is c
        assert reg.counter("x").value == 3.0
        assert "x" in reg and len(reg) == 1

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_gauge_overwrites(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.5)
        assert g.value == 2.5

    def test_as_dict_sorted_plain_floats(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(1.0)
        reg.counter("a").inc()
        flat = reg.as_dict()
        assert list(flat) == ["a", "b"]
        assert flat == {"a": 1.0, "b": 1.0}
        assert all(type(v) is float for v in flat.values())

    def test_snapshot_types_and_nan_null(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3.0)
        reg.gauge("window_mean").set(float("nan"))
        snap = reg.snapshot()
        assert snap["hits"] == {"type": "counter", "value": 3.0}
        assert snap["window_mean"] == {"type": "gauge", "value": None}
        # The whole snapshot must survive strict JSON encoding.
        import json

        json.dumps(snap, allow_nan=False)


class TestObservedRuns:
    def test_disabled_by_default_and_no_events(self, small_config):
        trace = poisson_trace(rate=20.0, duration=60.0, seed=5)
        result = run_single(trace, small_config, AlwaysOnPolicy())
        assert result.events == []

    def test_observe_does_not_change_metrics(self, small_config):
        """The tier-1 guarantee: tracing must never perturb the physics."""
        trace = poisson_trace(rate=30.0, duration=120.0, seed=11)
        policy_cfg = HibernatorConfig(epoch_seconds=30.0)
        plain = run_single(trace, small_config, HibernatorPolicy(policy_cfg),
                           goal_s=0.2)
        observed = run_single(trace, small_config, HibernatorPolicy(policy_cfg),
                              goal_s=0.2, observe=True)
        assert observed.events and not plain.events
        for field in ("num_requests", "failed_requests", "energy_joules",
                      "mean_response_s", "spinups", "speed_changes",
                      "migration_extents", "migration_bytes", "sim_end"):
            assert getattr(plain, field) == getattr(observed, field), field
        drop_runtime = lambda d: {k: v for k, v in d.items()
                                  if not k.startswith("runtime_")}
        assert drop_runtime(plain.extras) == drop_runtime(observed.extras)
        assert plain.latency_windows == observed.latency_windows

    def test_run_brackets_and_determinism(self, small_config):
        first = observed_hibernator_run(small_config)
        again = observed_hibernator_run(small_config)
        assert first.events[0].kind == "run_start"
        assert first.events[-1].kind == "run_end"
        assert all(isinstance(e.time, float) for e in first.events)
        assert first.events == again.events  # fully deterministic

    def test_reconciles_with_result_counters(self, small_config):
        """Every counter the simulation or its policy registers equals
        the count reconcile() derives from the run's events: each named
        policy with and without faults, the observed golden run, and a
        PDC run with empty periods. A counter reconcile() has no entry
        for fails, so no counter ships without the events behind it."""
        problems: list[str] = []
        exercised: set[str] = set()
        results = {}
        for label, sim, result in _reconciliation_runs(small_config):
            results[label] = result
            derived = reconcile(result.events)
            for key in ("spinups", "speed_changes", "migration_extents",
                        "failed_requests"):
                if derived[key] != getattr(result, key):
                    problems.append(f"{label}: {key} {getattr(result, key)} "
                                    f"reported, {derived[key]:g} from events")
            if derived["boost_seconds"] != pytest.approx(
                    result.extras.get("boost_seconds", 0.0)):
                problems.append(f"{label}: boost_seconds disagrees with events")
            for registry in (sim.metrics, sim.policy.metrics):
                for name, entry in registry.snapshot().items():
                    if entry["type"] != "counter":
                        continue
                    if entry["value"]:
                        exercised.add(name)
                    if name not in derived:
                        problems.append(f"{label}: counter {name!r} has no "
                                        "reconcile() entry")
                    elif derived[name] != entry["value"]:
                        problems.append(f"{label}: {name} counted "
                                        f"{entry['value']:g}, events give "
                                        f"{derived[name]:g}")
        assert not problems, "\n".join(problems)
        assert _POLICY_COUNTERS <= exercised
        # The empty periods are there: more periods than migration plans.
        pdc = results["pdc-empty-periods"]
        plans = sum(isinstance(e, MigrationPlanned) for e in pdc.events)
        assert pdc.extras["pdc_periods"] > plans

    def test_run_end_mirrors_result(self, small_config):
        result = observed_hibernator_run(small_config)
        end = result.events[-1]
        assert isinstance(end, RunEnd)
        assert end.num_requests == result.num_requests
        assert end.energy_joules == pytest.approx(result.energy_joules)
        assert end.spinups == result.spinups
        assert end.speed_changes == result.speed_changes
        assert end.migration_extents == result.migration_extents
        assert end.migration_bytes == result.migration_bytes
        assert end.time == pytest.approx(result.sim_end)

    def test_epoch_events_match_records(self, small_config):
        result = observed_hibernator_run(small_config)
        epochs = [e for e in result.events if e.kind == "epoch"]
        assert len(epochs) == result.extras["epochs"]
        assert [e.epoch_index for e in epochs] == list(range(len(epochs)))
        for e in epochs:
            assert sum(e.tier_counts) == small_config.num_disks
            assert "@" in e.configuration

    def test_result_with_events_pickles(self, small_config):
        result = observed_hibernator_run(small_config)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.events == result.events

    def test_comparison_all_events_and_parallel_identical(self, small_config, tmp_path):
        trace = poisson_trace(rate=20.0, duration=60.0, seed=9)
        kwargs = dict(slack=2.0,
                      hibernator_config=HibernatorConfig(epoch_seconds=30.0),
                      observe=True)
        seq = run_comparison(trace, small_config, **kwargs)
        par = run_comparison(trace, small_config, jobs=2, **kwargs)
        assert seq.all_events() == par.all_events()
        runs = split_runs(seq.all_events())
        assert [r[0].policy_name for r in runs] == list(seq.results)

    def test_cache_round_trip_preserves_events(self, small_config, tmp_path):
        from repro.analysis.cache import ResultCache
        from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute_one

        trace = poisson_trace(rate=20.0, duration=60.0, seed=9)
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(trace=TraceSpec.from_trace(trace), array=small_config,
                       policy=PolicySpec.named("base"), observe=True)
        cold = execute_one(spec, cache=cache)
        warm = execute_one(spec, cache=cache)
        assert cache.hits == 1
        assert warm.events == cold.events and warm.events

    def test_observe_flag_changes_cache_key(self, small_config, tmp_path):
        from repro.analysis.cache import ResultCache
        from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec

        trace_spec = TraceSpec.from_trace(poisson_trace(rate=20.0, duration=60.0, seed=9))
        cache = ResultCache(tmp_path / "cache")
        plain = RunSpec(trace=trace_spec, array=small_config,
                        policy=PolicySpec.named("base"))
        observed = RunSpec(trace=trace_spec, array=small_config,
                           policy=PolicySpec.named("base"), observe=True)
        assert cache.key_for(plain) != cache.key_for(observed)


class TestSummaryRendering:
    def test_render_run_smoke(self, small_config):
        result = observed_hibernator_run(small_config)
        text = render_run(result.events)
        assert "epoch decisions" in text
        assert "reconciliation" in text
        assert "MISMATCH" not in text
        assert "mean rpm" in text

    def test_render_runs_concatenates(self, small_config):
        result = observed_hibernator_run(small_config)
        text = render_runs([result.events, result.events])
        assert text.count("epoch decisions") == 2

    def test_render_empty(self):
        text = render_run([])
        assert "0 events" in text
        assert "MISMATCH" not in text
