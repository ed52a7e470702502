"""Typed trace events.

Every event is a frozen dataclass with a ``time`` field (simulated
seconds) and a class-level ``kind`` tag. Events are:

* **picklable** — parallel workers return them inside
  :class:`~repro.sim.runner.SimulationResult` and the result cache
  stores them;
* **deterministic** — emitted from the event loop in callback order, so
  two runs of the same spec produce identical event sequences;
* **JSON-round-trippable** — :func:`event_to_dict` /
  :func:`event_from_dict` convert to and from the flat dicts used by the
  JSONL trace files (tuples become lists on the way out and are restored
  on the way in).

The schema is intentionally flat: scalars, strings and tuples of ints
only, so a trace file stays greppable and diffs cleanly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar


@dataclass(frozen=True)
class TraceEvent:
    """Base event: a timestamped, typed record of one decision/action."""

    #: Simulated time (seconds) at which the event happened.
    time: float

    #: Stable tag identifying the event type in serialized form.
    kind: ClassVar[str] = "event"


#: kind tag -> event class, populated by :func:`_register`.
EVENT_TYPES: dict[str, type[TraceEvent]] = {}


def _register(cls: type[TraceEvent]) -> type[TraceEvent]:
    if cls.kind in EVENT_TYPES:
        raise ValueError(f"duplicate event kind {cls.kind!r}")
    EVENT_TYPES[cls.kind] = cls
    return cls


@_register
@dataclass(frozen=True)
class RunStart(TraceEvent):
    """First event of every observed run: identifies the experiment."""

    trace_name: str
    policy_name: str
    policy_params: str
    goal_s: float | None
    num_disks: int
    num_extents: int
    #: Spindle speed of each disk when the run opened.
    initial_rpm: tuple[int, ...]

    kind: ClassVar[str] = "run_start"


@_register
@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """Last event of every observed run: the counters the result reports.

    Carried in the trace so a JSONL file is self-contained — the
    reconciliation in :func:`repro.obs.summary.reconcile` checks the
    event stream against these figures without needing the result object.
    """

    num_requests: int
    failed_requests: int
    energy_joules: float
    #: Lump-sum transition energy (see ``EnergyMeter.impulse_joules``).
    impulse_joules: float
    boost_seconds: float
    spinups: int
    speed_changes: int
    migration_extents: int
    migration_bytes: int

    kind: ClassVar[str] = "run_end"


@_register
@dataclass(frozen=True)
class EpochBoundary(TraceEvent):
    """One epoch-boundary decision of an epoch-based policy."""

    epoch_index: int
    #: Human-readable configuration, e.g. ``"2@15000+6@6000"``.
    configuration: str
    #: Supported speeds, fastest first (the tier order).
    tier_speeds: tuple[int, ...]
    #: Disks per tier, parallel to ``tier_speeds``.
    tier_counts: tuple[int, ...]
    #: Total observed heat (weighted request rate) folded at the boundary.
    heat_total: float
    predicted_response_s: float
    predicted_energy_joules: float
    #: False when the optimizer fell back to all-full-speed.
    feasible: bool
    planned_moves: int
    #: Whether the boost was active when the boundary fired.
    boosted: bool
    #: Length of the epoch that starts at this boundary.
    epoch_seconds: float

    kind: ClassVar[str] = "epoch"


@_register
@dataclass(frozen=True)
class BoostEnter(TraceEvent):
    """The guarantee kicked in: all disks to full speed."""

    #: Deficit (latency-seconds above goal) that triggered the boost.
    deficit_s: float

    kind: ClassVar[str] = "boost_enter"


@_register
@dataclass(frozen=True)
class BoostExit(TraceEvent):
    """Enough credit rebuilt: the boost released."""

    deficit_s: float
    #: Cumulative boosted time including the interval just closed.
    boost_seconds_total: float

    kind: ClassVar[str] = "boost_exit"


@_register
@dataclass(frozen=True)
class SpeedTransition(TraceEvent):
    """One spindle began a speed transition (including spin-up/-down)."""

    disk: int
    from_rpm: int
    to_rpm: int

    kind: ClassVar[str] = "speed_transition"

    @property
    def is_spinup(self) -> bool:
        return self.from_rpm == 0 and self.to_rpm > 0

    @property
    def is_spindown(self) -> bool:
        return self.from_rpm > 0 and self.to_rpm == 0

    @property
    def is_speed_change(self) -> bool:
        """Spinning-to-spinning change (the ``speed_changes`` counter)."""
        return self.from_rpm > 0 and self.to_rpm > 0


@_register
@dataclass(frozen=True)
class PdcPeriod(TraceEvent):
    """One PDC re-ranking period closed (counts toward ``pdc_periods``).

    Emitted at every period boundary, including one whose plan is empty
    because the layout already matches the ranking.
    """

    #: Moves in the period's concentration plan.
    planned_moves: int

    kind: ClassVar[str] = "pdc_period"


@_register
@dataclass(frozen=True)
class MigrationPlanned(TraceEvent):
    """A migration plan started executing."""

    moves: int

    kind: ClassVar[str] = "migration_planned"


@_register
@dataclass(frozen=True)
class MigrationMove(TraceEvent):
    """One extent finished moving (counts toward ``migration_extents``)."""

    extent: int
    from_disk: int
    to_disk: int

    kind: ClassVar[str] = "migration_move"


@_register
@dataclass(frozen=True)
class MigrationCancelled(TraceEvent):
    """Remaining moves were dropped (boost preemption or no free slots)."""

    unplaced: int

    kind: ClassVar[str] = "migration_cancelled"


@_register
@dataclass(frozen=True)
class RequestFailed(TraceEvent):
    """A foreground request could not be served (degraded mode)."""

    req_id: int
    extent: int
    op_kind: str

    kind: ClassVar[str] = "request_failed"


@_register
@dataclass(frozen=True)
class DiskFailed(TraceEvent):
    """A whole-disk failure was injected (or observed by the policy)."""

    disk: int
    #: Extents resident on the disk at failure time — the data exposed
    #: until the rebuild re-protects it.
    extents_exposed: int

    kind: ClassVar[str] = "disk_failed"


@_register
@dataclass(frozen=True)
class OpRetried(TraceEvent):
    """A physical disk op hit an injected transient error and will retry."""

    disk: int
    #: Attempt number that just failed (1 = first service attempt).
    attempt: int
    op_kind: str
    #: Backoff before the op re-queues, in seconds.
    backoff_s: float

    kind: ClassVar[str] = "op_retried"


@_register
@dataclass(frozen=True)
class RebuildProgress(TraceEvent):
    """Rebuild advanced: one extent re-protected, re-queued or stalled."""

    #: Extents re-protected so far (across all failures).
    rebuilt: int
    #: Extents waiting for a healthy disk with a free slot.
    unplaced: int
    #: Extents queued behind the concurrency bound.
    pending: int
    #: Total extents ever scheduled for rebuild.
    total: int

    kind: ClassVar[str] = "rebuild_progress"


@_register
@dataclass(frozen=True)
class ServeGoalChanged(TraceEvent):
    """A ``set-goal`` control command changed the goal mid-run."""

    old_goal_s: float | None
    new_goal_s: float | None

    kind: ClassVar[str] = "serve_goal_changed"


@_register
@dataclass(frozen=True)
class ServeFaultInjected(TraceEvent):
    """An ``inject-fault`` control command installed a plan mid-run."""

    disk_failures: int
    transient_faults: int
    slow_disk_faults: int

    kind: ClassVar[str] = "serve_fault_injected"


@_register
@dataclass(frozen=True)
class ServeBoostForced(TraceEvent):
    """A ``force-boost`` control command entered the boost by hand."""

    #: False when the policy refused (no boost mechanism / already boosted).
    entered: bool

    kind: ClassVar[str] = "serve_boost_forced"


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """Flatten an event into a JSON-safe dict (``event`` key = kind tag)."""
    out: dict[str, Any] = {"event": event.kind}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def event_from_dict(data: dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`; rejects unknown kinds."""
    try:
        kind = data["event"]
    except KeyError:
        raise ValueError(f"not an event record (no 'event' key): {data!r}") from None
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}; known: {sorted(EVENT_TYPES)}")
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        elif value is None and f.type == "float":
            # Strict-JSON traces store non-finite floats as null
            # (repro.obs.tracelog); a required-float field can only be
            # null because it held NaN, so restore it. Optional floats
            # ("float | None") keep None — their null means absent.
            value = float("nan")
        kwargs[f.name] = value
    return cls(**kwargs)
