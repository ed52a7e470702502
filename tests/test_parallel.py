"""Tests for parallel experiment execution and its determinism guarantee.

The smoke test that compares ``jobs=2`` against ``jobs=1`` byte-for-byte
is tier-1 on purpose: parallelism must never be able to silently change
results.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cache import ResultCache, content_key
from repro.analysis.experiments import default_array_config, run_comparison
from repro.analysis.export import comparison_to_dict, result_to_dict
from repro.analysis.parallel import (
    PolicySpec,
    RunSpec,
    TraceSpec,
    comparison_specs,
    execute,
    execute_one,
    run_spec,
)
from repro.policies.maid import MaidConfig
from repro.traces.synthetic import SizeMix, SyntheticConfig, generate_synthetic

#: Wall-clock instrumentation varies between repeats; everything else in a
#: result must be bit-identical for identical specs.
_NONDETERMINISTIC_EXTRAS = ("runtime_wall_s", "runtime_events_per_s")


def small_trace_config():
    return SyntheticConfig(
        name="par",
        duration=30.0,
        rate=15.0,
        num_extents=40,
        seed=9,
        size_mix=SizeMix(sizes=(4096,), weights=(1.0,)),
    )


def small_array():
    return default_array_config(num_disks=4, num_extents=40)


def canonical(result_dict: dict) -> str:
    """JSON form of a result with the wall-clock-dependent extras removed."""
    extras = result_dict.get("extras", {})
    for key in _NONDETERMINISTIC_EXTRAS:
        extras.pop(key, None)
    return json.dumps(result_dict, sort_keys=True)


def canonical_comparison(comparison) -> str:
    data = comparison_to_dict(comparison)
    for scheme in data["schemes"].values():
        for key in _NONDETERMINISTIC_EXTRAS:
            scheme["extras"].pop(key, None)
    return json.dumps(data, sort_keys=True)


class TestTraceSpec:
    def test_generator_roundtrip(self):
        spec = TraceSpec.from_generator("synthetic", small_trace_config())
        trace = spec.build()
        assert len(trace) > 0
        again = spec.build()
        assert (trace.times == again.times).all()

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown trace generator"):
            TraceSpec.from_generator("nope", small_trace_config())

    def test_config_type_checked(self):
        with pytest.raises(TypeError, match="expects OltpConfig"):
            TraceSpec.from_generator("oltp", small_trace_config())

    def test_inline_trace(self):
        trace = generate_synthetic(small_trace_config())
        spec = TraceSpec.from_trace(trace)
        assert spec.build() is trace

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty TraceSpec"):
            TraceSpec().build()

    def test_inline_key_tracks_content(self):
        t1 = generate_synthetic(small_trace_config())
        t2 = generate_synthetic(small_trace_config())
        t3 = generate_synthetic(
            SyntheticConfig(name="par", duration=30.0, rate=15.0, num_extents=40, seed=10)
        )
        assert content_key(TraceSpec.from_trace(t1)) == content_key(TraceSpec.from_trace(t2))
        assert content_key(TraceSpec.from_trace(t1)) != content_key(TraceSpec.from_trace(t3))


class TestPolicySpec:
    def test_named_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec.named("nope")

    def test_maid_adjusts_array(self):
        trace = generate_synthetic(small_trace_config())
        config = small_array()
        policy, adjusted = PolicySpec.named("maid").build(trace, config)
        cache_disks = MaidConfig().num_cache_disks
        assert adjusted.initial_disks == tuple(range(cache_disks, config.num_disks))

    def test_empty_spec_rejected(self):
        trace = generate_synthetic(small_trace_config())
        with pytest.raises(ValueError, match="empty PolicySpec"):
            PolicySpec().build(trace, small_array())


class TestExecute:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            execute([], jobs=0)

    def test_results_in_spec_order(self):
        trace_spec = TraceSpec.from_generator("synthetic", small_trace_config())
        specs = [
            RunSpec(trace=trace_spec, array=small_array(), policy=PolicySpec.named(name))
            for name in ("base", "tpm", "base")
        ]
        results = execute(specs, jobs=1)
        assert [r.policy_name for r in results] == ["Base", "TPM", "Base"]

    def test_jobs_do_not_change_metrics(self):
        """Tier-1 smoke test: fan-out can never silently change results."""
        trace_spec = TraceSpec.from_generator("synthetic", small_trace_config())
        specs = [
            RunSpec(trace=trace_spec, array=small_array(), policy=PolicySpec.named(name),
                    goal_s=0.05)
            for name in ("base", "tpm", "hibernator")
        ]
        sequential = execute(specs, jobs=1)
        parallel = execute(specs, jobs=2)
        for left, right in zip(sequential, parallel):
            assert canonical(result_to_dict(left)) == canonical(result_to_dict(right))

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(
            trace=TraceSpec.from_generator("synthetic", small_trace_config()),
            array=small_array(),
            policy=PolicySpec.named("base"),
        )
        cold = execute_one(spec, cache=cache)
        assert cache.stats()["stores"] == 1
        warm = execute_one(spec, cache=cache)
        assert cache.stats()["hits"] == 1
        # The cached result is the stored object, bit-identical.
        assert canonical(result_to_dict(cold)) == canonical(result_to_dict(warm))
        assert warm.extras["runtime_wall_s"] == cold.extras["runtime_wall_s"]

    def test_run_spec_worker_entry(self):
        spec = RunSpec(
            trace=TraceSpec.from_generator("synthetic", small_trace_config()),
            array=small_array(),
            policy=PolicySpec.named("base"),
        )
        result = run_spec(spec)
        assert result.num_requests > 0
        assert result.extras["runtime_events"] > 0


class TestRunComparison:
    def test_parallel_matches_sequential(self):
        """The full paper comparison is identical for any jobs value."""
        trace = generate_synthetic(small_trace_config())
        sequential = run_comparison(trace, small_array(), slack=2.0)
        parallel = run_comparison(trace, small_array(), slack=2.0, jobs=2)
        assert canonical_comparison(sequential) == canonical_comparison(parallel)

    def test_cached_rerun_hits(self, tmp_path):
        trace = generate_synthetic(small_trace_config())
        cache = ResultCache(tmp_path)
        first = run_comparison(trace, small_array(), slack=2.0, cache=cache)
        assert cache.stats()["hits"] == 0
        second = run_comparison(trace, small_array(), slack=2.0, cache=cache)
        assert cache.stats()["hits"] == len(second.results)
        assert canonical_comparison(first) == canonical_comparison(second)

    def test_comparison_specs_cover_standard_set(self):
        specs = comparison_specs(
            TraceSpec.from_generator("synthetic", small_trace_config()),
            small_array(),
            goal_s=0.05,
        )
        names = [spec.policy.name for spec in specs]
        assert names == ["tpm", "drpm", "pdc", "maid", "hibernator"]
        assert all(spec.goal_s == 0.05 for spec in specs)

