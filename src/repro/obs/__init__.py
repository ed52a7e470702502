"""Structured observability: typed trace events + a metrics registry.

A simulation run is a sequence of *decisions* — epoch configurations
chosen, boosts entered, spindles transitioned, extents migrated — and
debugging a policy means replaying those decisions, not re-deriving them
from aggregate counters. This package records them:

* :mod:`repro.obs.events` — typed, timestamped, picklable event records;
* :mod:`repro.obs.tracelog` — the in-run event sink plus JSONL I/O;
* :mod:`repro.obs.metrics` — named counters and gauges that policies
  and the engine register into (flattened into ``SimulationResult.extras``);
* :mod:`repro.obs.summary` — per-epoch tables, ASCII timelines and the
  event-vs-result reconciliation used by ``repro trace``.

Observability is **disabled by default and free when disabled**: every
emit site is guarded by an ``is None`` check on the hook, so a run
without a :class:`TraceLog` constructs no event objects and produces
results byte-identical to an uninstrumented build.
"""

from repro.obs.events import (
    BoostEnter,
    BoostExit,
    EpochBoundary,
    MigrationCancelled,
    MigrationMove,
    MigrationPlanned,
    RequestFailed,
    RunEnd,
    RunStart,
    ServeBoostForced,
    ServeFaultInjected,
    ServeGoalChanged,
    SpeedTransition,
    TraceEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.tracelog import JsonlWriter, TraceLog, read_jsonl, split_runs, write_jsonl

# The rendering layer pulls in repro.analysis, which imports the
# instrumented runner — which imports this package. Resolve lazily so the
# emit-side modules (events/metrics/tracelog) stay import-cycle free.
_SUMMARY_EXPORTS = ("reconcile", "render_run", "render_runs")


def __getattr__(name: str):
    if name in _SUMMARY_EXPORTS:
        from repro.obs import summary

        return getattr(summary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoostEnter",
    "BoostExit",
    "Counter",
    "EpochBoundary",
    "Gauge",
    "JsonlWriter",
    "MetricsRegistry",
    "MigrationCancelled",
    "MigrationMove",
    "MigrationPlanned",
    "RequestFailed",
    "RunEnd",
    "RunStart",
    "ServeBoostForced",
    "ServeFaultInjected",
    "ServeGoalChanged",
    "SpeedTransition",
    "TraceEvent",
    "TraceLog",
    "event_from_dict",
    "event_to_dict",
    "read_jsonl",
    "reconcile",
    "render_run",
    "render_runs",
    "split_runs",
    "write_jsonl",
]
