"""Unit tests for the on-disk result cache and content keying."""

from __future__ import annotations

import dataclasses
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cache import CODE_VERSION, ResultCache, _canonical, content_key
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute
from repro.disks.array import ArrayConfig
from repro.disks.specs import make_multispeed_spec
from repro.traces.ingest import IngestOptions
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticConfig

DATA = Path(__file__).parent / "data"


@dataclasses.dataclass
class _Spec:
    a: int
    b: float
    tags: tuple[str, ...] = ()


def _constant_rate(t):
    return np.full_like(t, 5.0)


def _scaled_rate(scale, t):
    return np.full_like(t, scale)


def _closure_rate(scale):
    def rate(t):
        return np.full_like(t, scale)
    return rate


class _Rate:
    def __init__(self, scale):
        self.scale = scale

    def rate(self, t):
        return np.full_like(t, self.scale)

    __call__ = rate


class TestContentKey:
    def test_equal_content_equal_key(self):
        assert content_key(_Spec(1, 2.5)) == content_key(_Spec(1, 2.5))

    def test_different_content_different_key(self):
        assert content_key(_Spec(1, 2.5)) != content_key(_Spec(1, 2.6))
        assert content_key(_Spec(1, 2.5)) != content_key(_Spec(2, 2.5))

    def test_version_changes_key(self):
        spec = _Spec(1, 2.5)
        assert content_key(spec, version="a") != content_key(spec, version="b")

    def test_dict_order_irrelevant(self):
        assert content_key({"x": 1, "y": 2}) == content_key({"y": 2, "x": 1})

    def test_ndarray_content_hashed(self):
        a = np.arange(10, dtype=np.int64)
        b = np.arange(10, dtype=np.int64)
        c = np.arange(10, dtype=np.int64)
        c[3] = 99
        assert content_key(a) == content_key(b)
        assert content_key(a) != content_key(c)

    def test_float_precision_preserved(self):
        assert content_key(0.1) != content_key(0.1 + 1e-15)

    def test_nested_dataclass(self):
        spec = make_multispeed_spec(num_levels=3)
        cfg1 = ArrayConfig(num_disks=4, spec=spec, num_extents=80)
        cfg2 = ArrayConfig(num_disks=4, spec=make_multispeed_spec(num_levels=3), num_extents=80)
        assert content_key(cfg1) == content_key(cfg2)
        cfg3 = dataclasses.replace(cfg1, seed=cfg1.seed + 1)
        assert content_key(cfg1) != content_key(cfg3)

    def test_unkeyable_object_raises(self):
        with pytest.raises(TypeError):
            content_key(object())

    def test_callable_keyed_by_name(self):
        assert content_key(make_multispeed_spec) == content_key(make_multispeed_spec)
        assert _canonical(_constant_rate) == {"__callable__": f"{__name__}._constant_rate"}
        assert _canonical(_Rate) == {"__callable__": f"{__name__}._Rate"}

    @pytest.mark.parametrize("rate_fn", [
        lambda t: np.full_like(t, 5.0),
        _closure_rate(5.0),
        _Rate(5.0).rate,
        functools.partial(_scaled_rate, 5.0),
        _Rate(5.0),
    ], ids=["lambda", "closure", "bound-method", "partial", "callable-instance"])
    def test_callable_its_name_does_not_identify_is_refused(self, rate_fn):
        """The name of each of these ignores what it computes: two
        lambdas, two closures or ``_Rate(1).rate`` and ``_Rate(5).rate``
        would share one key, and a partial's or instance's key would
        embed a memory address."""
        config = SyntheticConfig(duration=10.0, rate_fn=rate_fn)
        with pytest.raises(TypeError, match="module-level functions and classes"):
            content_key(TraceSpec.from_generator("synthetic", config))

    def test_cached_execute_refuses_lambda_specs_instead_of_aliasing(self, tmp_path):
        """Two specs that differ only in a lambda ``rate_fn`` would key
        equal, so the second run would be served the first one's result."""
        cache = ResultCache(tmp_path)

        def spec(rate_fn):
            config = SyntheticConfig(duration=20.0, rate=50.0, rate_fn=rate_fn)
            return RunSpec(trace=TraceSpec.from_generator("synthetic", config),
                           array=_array_config(), policy=_policy_spec("base"))

        for run in (spec(lambda t: np.full_like(t, 5.0)),
                    spec(lambda t: np.full_like(t, 50.0))):
            with pytest.raises(TypeError, match="lambda"):
                execute([run], cache=cache)
        assert len(cache) == 0


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"spec": 1})
        assert cache.get(key) is None
        cache.put(key, {"energy": 42.0})
        assert cache.get(key) == {"energy": 42.0}
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "stores": 1}

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(content_key("x"), [1, 2, 3])
        fresh = ResultCache(tmp_path)
        assert fresh.get(content_key("x")) == [1, 2, 3]

    def test_version_tag_isolates_entries(self, tmp_path):
        old = ResultCache(tmp_path, version="v1")
        new = ResultCache(tmp_path, version="v2")
        old.put(old.key_for("spec"), "old-result")
        assert new.get(new.key_for("spec")) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key_for("a"), 1)
        cache.put(cache.key_for("b"), 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(cache.key_for("a")) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("spec")
        cache.put(key, "value")
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not cache._path(key).exists()

    def test_default_version_is_code_version(self, tmp_path):
        assert ResultCache(tmp_path).version == CODE_VERSION

    def test_size_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put(cache.key_for("a"), list(range(100)))
        assert cache.size_bytes() > 0


# -- cache-key completeness audit --------------------------------------------
#
# The cache keys a run by the content of its spec; a spec field that
# never reaches the key aliases two different runs onto one entry and
# silently serves stale results. These tests pin down that EVERY field
# of ArrayConfig and RunSpec perturbs the run key. New fields fail the
# test until a perturbation is registered here, which is the audit.

def _perturbed_spec():
    from repro.disks.specs import make_multispeed_spec as mk

    return mk(num_levels=4)


_ARRAY_PERTURB = {
    "num_disks": lambda v: v + 1,
    "spec": lambda v: _perturbed_spec(),
    "num_extents": lambda v: v + 1,
    "extent_bytes": lambda v: v * 2,
    "slack_fraction": lambda v: v + 0.05,
    "raid5": lambda v: not v,
    "deterministic_latency": lambda v: not v,
    "seed": lambda v: v + 1,
    "initial_layout": lambda v: "perturbed",
    "initial_disks": lambda v: (0, 1),
    "slots_override": lambda v: 4096,
    "scheduler": lambda v: "sstf",
    "write_cache": lambda v: not v,
    "write_cache_latency_s": lambda v: v * 2,
}

_RUN_PERTURB = {
    "trace": lambda v: dataclasses.replace(
        v, config=dataclasses.replace(v.config, seed=v.config.seed + 1)),
    "array": lambda v: dataclasses.replace(v, seed=v.seed + 1),
    "policy": lambda v: _policy_spec("tpm"),
    "goal_s": lambda v: 0.25,
    "window_s": lambda v: 60.0,
    "keep_latency_samples": lambda v: not v,
    "observe": lambda v: not v,
    "faults": lambda v: _fault_plan(),
}


def _fault_plan():
    from repro.faults.plan import DiskFailure, FaultPlan

    return FaultPlan(disk_failures=(DiskFailure(time_s=1.0, disk=0),))


def _array_config():
    return ArrayConfig(num_disks=4, spec=make_multispeed_spec(num_levels=3), num_extents=80)


def _policy_spec(name):
    from repro.analysis.parallel import PolicySpec

    return PolicySpec.named(name)


def _run_spec(config):
    from repro.analysis.parallel import RunSpec, TraceSpec
    from repro.traces.synthetic import SyntheticConfig

    return RunSpec(
        trace=TraceSpec.from_generator("synthetic", SyntheticConfig(duration=10.0)),
        array=config,
        policy=_policy_spec("base"),
    )


class TestArrayConfigKeyCompleteness:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ArrayConfig)])
    def test_every_field_perturbs_the_run_key(self, name):
        assert name in _ARRAY_PERTURB, (
            f"new ArrayConfig field {name!r} has no perturbation registered; "
            "add one here and confirm it reaches the cache key")
        cfg = _array_config()
        changed = dataclasses.replace(
            cfg, **{name: _ARRAY_PERTURB[name](getattr(cfg, name))})
        assert content_key(_run_spec(cfg)) != content_key(_run_spec(changed)), (
            f"ArrayConfig.{name} does not reach the run cache key: two runs "
            "differing only in it would alias to one cached result")

    def test_deterministic_latency_modes_never_share_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        det = dataclasses.replace(_array_config(), deterministic_latency=True)
        stoch = dataclasses.replace(_array_config(), deterministic_latency=False)
        cache.put(cache.key_for(_run_spec(det)), "deterministic-result")
        assert cache.get(cache.key_for(_run_spec(stoch))) is None


class TestRunSpecKeyCompleteness:
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(RunSpec)])
    def test_every_field_perturbs_the_key(self, name):
        assert name in _RUN_PERTURB, (
            f"new RunSpec field {name!r} has no perturbation registered; "
            "add one here and confirm it reaches the cache key")
        spec = _run_spec(_array_config())
        changed = dataclasses.replace(
            spec, **{name: _RUN_PERTURB[name](getattr(spec, name))})
        assert content_key(spec) != content_key(changed), (
            f"RunSpec.{name} does not reach the cache key")


# TraceSpec and PolicySpec build their keys by hand (``cache_key()``),
# one shape per source or kind. Each field is claimed by the sources
# that read it, with a perturbation that must move that source's key.

def _inline_trace(shift=0.0):
    times = np.array([0.0, 1.0, 2.0]) + shift
    return Trace("inline", 8, times, np.zeros(3, dtype=np.int8),
                 np.array([0, 1, 2]), np.zeros(3, dtype=np.int64),
                 np.full(3, 4096, dtype=np.int64))


#: source/kind -> (base spec, {field: perturbation}).
_TRACE_SOURCES = {
    "generator": (
        lambda: TraceSpec.from_generator("synthetic", SyntheticConfig(duration=10.0)),
        {"generator": lambda v: "flashcrowd",
         "config": lambda v: dataclasses.replace(v, seed=v.seed + 1)}),
    "file": (
        lambda: TraceSpec.from_import(str(DATA / "msr_tiny.csv"), "msr", IngestOptions(seed=1)),
        {"path": lambda v: str(DATA / "generic_tiny.csv"),  # other bytes
         "format": lambda v: "csv",
         "options": lambda v: dataclasses.replace(v, seed=2)}),
    "inline": (
        lambda: TraceSpec.from_trace(_inline_trace()),
        {"trace": lambda v: _inline_trace(shift=0.5)}),
}

_POLICY_KINDS = {
    "named": (
        lambda: PolicySpec.named("tpm", threshold_multiple=1.0),
        {"name": lambda v: "drpm",
         "params": lambda v: {"threshold_multiple": 2.0}}),
}


def _assert_field_moves_key(cls, sources, name):
    claims = {src: (make, perturb[name])
              for src, (make, perturb) in sources.items() if name in perturb}
    assert claims, (
        f"new {cls.__name__} field {name!r} has no perturbation registered "
        "for any source; add one here and confirm it reaches the cache key")
    for src, (make, perturb) in claims.items():
        spec = make()
        changed = dataclasses.replace(spec, **{name: perturb(getattr(spec, name))})
        assert content_key(spec) != content_key(changed), (
            f"{cls.__name__}.{name} does not reach the {src} cache key")


class TestTraceSpecKeyCompleteness:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TraceSpec)])
    def test_every_field_perturbs_the_key(self, name):
        _assert_field_moves_key(TraceSpec, _TRACE_SOURCES, name)

    @pytest.mark.parametrize("arg", [
        p for p in inspect.signature(Trace).parameters])
    def test_inline_key_covers_every_trace_column(self, arg):
        """An inline trace is keyed by its content: each constructor
        argument of :class:`Trace` must move the key."""
        base = _inline_trace()
        args = {p: getattr(base, p) for p in inspect.signature(Trace).parameters}
        args[arg] = "other" if arg == "name" else args[arg] + 1  # every column too
        changed = Trace(**args)
        assert (content_key(TraceSpec.from_trace(base))
                != content_key(TraceSpec.from_trace(changed))), (
            f"inline TraceSpec key ignores Trace.{arg}")


class TestPolicySpecKeyCompleteness:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PolicySpec)])
    def test_every_field_perturbs_the_key(self, name):
        _assert_field_moves_key(PolicySpec, _POLICY_KINDS, name)
