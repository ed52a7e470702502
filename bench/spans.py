"""Span tracing for the benchmark's traced runs.

The benchmark wraps each layer's public entry points from outside the
program, at class or module level, before any simulation object is
built, so methods the runner pre-binds at construction pick up the
wrappers too. Spans are kept in memory as per-name aggregates (calls,
inclusive time, self time, longest call). Spans nest on a stack: a
span's self time is its duration minus the time covered by wrapped
calls made inside it, so per-layer self times do not double count.

A target that no longer exists is recorded in :attr:`Tracer.missing`
and reported, never raised: the benchmark must keep running on code
that renamed or deleted a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

#: layer -> (module, attribute path) of the entry points wrapped for it.
#: Policy hooks are added per policy class by :meth:`Tracer.install`.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "engine": (("repro.sim.engine", "Engine.run"),),
    "runner": (
        ("repro.sim.runner", "ArraySimulation.begin"),
        ("repro.sim.runner", "ArraySimulation.finalize"),
    ),
    "array": (
        ("repro.disks.array", "DiskArray.submit"),
        ("repro.disks.array", "DiskArray.migrate_extent"),
        ("repro.disks.array", "DiskArray.set_speed"),
    ),
    "disk": (
        ("repro.disks.disk", "MultiSpeedDisk.submit"),
        ("repro.disks.disk", "MultiSpeedDisk.set_speed"),
    ),
    "mechanics": (("repro.disks.mechanics", "DiskMechanics.service_time"),),
    "power": (
        ("repro.disks.power", "EnergyMeter.update"),
        ("repro.disks.power", "EnergyMeter.add_impulse"),
    ),
    "stats": (
        ("repro.sim.stats", "LatencyRecorder.add"),
        ("repro.sim.stats", "DeficitTracker.add"),
    ),
    "heat": (
        ("repro.core.temperature", "HeatTracker.record"),
        ("repro.core.temperature", "HeatTracker.close_epoch"),
    ),
    "guarantee": (("repro.core.guarantee", "BoostController.observe"),),
    "cr": (("repro.core.speed_setting", "solve_speed_assignment"),),
    "migration": (
        ("repro.core.migration", "plan_shuffle_migration"),
        ("repro.core.migration", "MigrationExecutor.start"),
    ),
    "traces": (
        ("repro.analysis.parallel", "TraceSpec.build"),
        ("repro.traces.io", "load_trace"),
    ),
    "cache": (
        ("repro.analysis.cache", "ResultCache.key_for"),
        ("repro.analysis.cache", "ResultCache.get"),
        ("repro.analysis.cache", "ResultCache.put"),
    ),
}

#: Per-request policy hooks, wrapped on every policy class defining them.
HOOK_METHODS = ("on_request_arrival", "on_request_complete")


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive s, self s, longest s]
        self.spans: dict[str, list[Any]] = {}
        self.layer_of: dict[str, str] = {}
        self.missing: list[str] = []
        self._nested = [0.0]

    def wrap(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``name``."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        self.layer_of[name] = layer
        nested = self._nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                nested[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if elapsed > stat[3]:
                    stat[3] = elapsed

        return span

    def patch(self, layer: str, module_name: str, path: str) -> None:
        """Wrap ``module_name.path`` in place; record it as missing if gone."""
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if not inspect.isfunction(original):
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = self.wrap(path, layer, original)
        setattr(owner, attr, wrapper)
        if not parents:
            # Modules that imported the function by name hold their own
            # reference (repro.core.hibernator does for the CR solver and
            # the migration planner); rebind those too.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYERS` plus the policy hooks."""
        # Importing the spec layer loads every policy and the modules that
        # import layer functions by name, so the rebinding above sees them.
        importlib.import_module("repro.analysis.parallel")
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                self.patch(layer, module_name, path)
        try:
            from repro.policies.base import PowerPolicy
        except ImportError:
            self.missing.append("repro.policies.base.PowerPolicy")
            return self
        classes = [PowerPolicy]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            for method in HOOK_METHODS:
                if method in vars(cls):
                    self.patch("hooks", cls.__module__, f"{cls.__qualname__}.{method}")
        return self

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its spans."""
        totals: dict[str, tuple[int, float]] = {}
        for name, (calls, _, own, _) in self.spans.items():
            layer = self.layer_of[name]
            prev_calls, prev_self = totals.get(layer, (0, 0.0))
            totals[layer] = (prev_calls + calls, prev_self + own)
        return totals

    def span(self, name: str) -> tuple[int, float, float, float]:
        """(calls, inclusive s, self s, longest s) of one span name."""
        calls, total, own, longest = self.spans.get(name, (0, 0.0, 0.0, 0.0))
        return calls, total, own, longest
