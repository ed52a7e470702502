"""Trace rendering and event-vs-result reconciliation.

``repro trace t.jsonl`` turns a raw event log back into the story of the
run: a per-epoch decision table, an ASCII speed/boost timeline (built on
:mod:`repro.analysis.ascii_plot`) and a reconciliation block proving the
event stream accounts for every reported counter.

:func:`reconcile` is the load-bearing piece: it recomputes
``boost_seconds``, ``spinups``, ``speed_changes``, ``migration_extents``
and ``failed_requests`` purely from the events and compares them against
the ``run_end`` record. It also recomputes every policy counter
(``epochs``, ``infeasible_epochs``, ``planned_moves``, ``boosts``,
``disk_failures``, ``pdc_periods``), which the tests hold equal to the
registry's. A mismatch means an emit site is missing or an accounting
bug crept in — exactly the class of error this layer exists to localize.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.ascii_plot import sparkline
from repro.analysis.report import format_kv, format_table
from repro.obs.events import (
    BoostEnter,
    BoostExit,
    DiskFailed,
    EpochBoundary,
    MigrationMove,
    PdcPeriod,
    RequestFailed,
    RunEnd,
    RunStart,
    SpeedTransition,
    TraceEvent,
)


def reconcile(events: Sequence[TraceEvent]) -> dict[str, float]:
    """Recompute run counters from the event stream alone.

    Returns ``spinups``, ``speed_changes``, ``migration_extents``,
    ``failed_requests``, ``boosts`` and ``boost_seconds`` (an open boost
    is closed at the ``run_end`` time, or at the last event's time when
    the trace was truncated), plus one entry per policy counter:
    ``epochs``, ``infeasible_epochs`` and ``planned_moves`` from the
    epoch events, ``disk_failures`` and ``pdc_periods``.
    """
    spinups = 0
    speed_changes = 0
    migration_extents = 0
    failed = 0
    epochs = 0
    infeasible_epochs = 0
    planned_moves = 0
    disk_failures = 0
    pdc_periods = 0
    boosts = 0
    boost_seconds = 0.0
    boost_open: float | None = None
    end_time = events[-1].time if events else 0.0
    for event in events:
        if isinstance(event, SpeedTransition):
            if event.is_spinup:
                spinups += 1
            elif event.is_speed_change:
                speed_changes += 1
        elif isinstance(event, MigrationMove):
            migration_extents += 1
        elif isinstance(event, RequestFailed):
            failed += 1
        elif isinstance(event, EpochBoundary):
            epochs += 1
            if not event.feasible:
                infeasible_epochs += 1
            planned_moves += event.planned_moves
        elif isinstance(event, DiskFailed):
            disk_failures += 1
        elif isinstance(event, PdcPeriod):
            pdc_periods += 1
        elif isinstance(event, BoostEnter):
            boosts += 1
            boost_open = event.time
        elif isinstance(event, BoostExit):
            if boost_open is not None:
                boost_seconds += event.time - boost_open
                boost_open = None
        elif isinstance(event, RunEnd):
            end_time = event.time
    if boost_open is not None:
        boost_seconds += end_time - boost_open
    return {
        "spinups": float(spinups),
        "speed_changes": float(speed_changes),
        "migration_extents": float(migration_extents),
        "failed_requests": float(failed),
        "epochs": float(epochs),
        "infeasible_epochs": float(infeasible_epochs),
        "planned_moves": float(planned_moves),
        "disk_failures": float(disk_failures),
        "pdc_periods": float(pdc_periods),
        "boosts": float(boosts),
        "boost_seconds": boost_seconds,
    }


def _first(events: Sequence[TraceEvent], cls: type) -> TraceEvent | None:
    for event in events:
        if isinstance(event, cls):
            return event
    return None


def _epoch_table(events: Sequence[TraceEvent]) -> str:
    epochs = [e for e in events if isinstance(e, EpochBoundary)]
    if not epochs:
        return "(no epoch events in this run)"
    rows = []
    for e in epochs:
        rows.append([
            str(e.epoch_index),
            f"{e.time:.0f}",
            e.configuration,
            f"{e.predicted_response_s * 1e3:.2f}",
            f"{e.predicted_energy_joules / 1e3:.1f}",
            "yes" if e.feasible else "NO",
            str(e.planned_moves),
            "boost" if e.boosted else "-",
            f"{e.epoch_seconds:g}",
        ])
    return format_table(
        ["#", "t (s)", "configuration", "pred RT ms", "pred kJ",
         "feasible", "moves", "state", "next epoch s"],
        rows,
        title="epoch decisions",
    )


def _timeline(events: Sequence[TraceEvent], width: int) -> str:
    """Sparkline of mean RPM + spinning count + a boost occupancy bar.

    Speeds are reconstructed from the ``run_start`` snapshot plus the
    ``speed_transition`` stream (a transition is charged at its start
    time — close enough for a character-cell timeline).
    """
    start = _first(events, RunStart)
    if start is None or not events:
        return "(no run_start event; timeline unavailable)"
    end_time = max(e.time for e in events)
    if end_time <= 0:
        return "(zero-length run; timeline unavailable)"
    speeds = list(start.initial_rpm)  # type: ignore[attr-defined]
    transitions = sorted(
        (e for e in events if isinstance(e, SpeedTransition)),
        key=lambda e: e.time,
    )
    boost_spans: list[tuple[float, float]] = []
    open_boost: float | None = None
    for event in events:
        if isinstance(event, BoostEnter):
            open_boost = event.time
        elif isinstance(event, BoostExit) and open_boost is not None:
            boost_spans.append((open_boost, event.time))
            open_boost = None
    if open_boost is not None:
        boost_spans.append((open_boost, end_time))

    mean_rpm: list[float] = []
    spinning: list[float] = []
    boost_row: list[str] = []
    t_index = 0
    for col in range(width):
        bucket_end = end_time * (col + 1) / width
        while t_index < len(transitions) and transitions[t_index].time <= bucket_end:
            tr = transitions[t_index]
            speeds[tr.disk] = tr.to_rpm
            t_index += 1
        mean_rpm.append(sum(speeds) / len(speeds))
        spinning.append(float(sum(1 for s in speeds if s > 0)))
        bucket_start = end_time * col / width
        boosted = any(b0 < bucket_end and b1 > bucket_start for b0, b1 in boost_spans)
        boost_row.append("█" if boosted else "·")
    lines = [
        f"mean rpm  {sparkline(mean_rpm)}  ({min(mean_rpm):.0f}..{max(mean_rpm):.0f})",
        f"spinning  {sparkline(spinning)}  ({min(spinning):.0f}..{max(spinning):.0f} disks)",
        f"boost     {''.join(boost_row)}",
        f"          0{'s':<{max(width - 10, 1)}}{end_time:>8.0f}s",
    ]
    return "\n".join(lines)


def _reconciliation_block(events: Sequence[TraceEvent]) -> str:
    computed = reconcile(events)
    end = _first(events, RunEnd)
    if end is None:
        return format_kv("reconciliation (no run_end event)", [
            (key, f"{value:g}") for key, value in computed.items()
        ])
    pairs = []
    for key in ("spinups", "speed_changes", "migration_extents",
                "failed_requests", "boost_seconds"):
        reported = float(getattr(end, key))
        derived = computed[key]
        ok = abs(reported - derived) <= 1e-9 * max(1.0, abs(reported))
        pairs.append((key, f"{derived:g} from events vs {reported:g} reported "
                           f"[{'ok' if ok else 'MISMATCH'}]"))
    return format_kv("reconciliation", pairs)


def render_run(events: Sequence[TraceEvent], width: int = 64) -> str:
    """Render one run's events: header, epoch table, timeline, checks."""
    parts: list[str] = []
    start = _first(events, RunStart)
    if start is not None:
        goal = (f"{start.goal_s * 1e3:.2f} ms"  # type: ignore[attr-defined]
                if start.goal_s is not None else "none")  # type: ignore[attr-defined]
        parts.append(
            f"== {start.policy_name} on {start.trace_name} "  # type: ignore[attr-defined]
            f"(goal {goal}, {start.num_disks} disks) =="  # type: ignore[attr-defined]
        )
    else:
        parts.append("== (run without run_start header) ==")
    parts.append(f"{len(events)} events")
    parts.append("")
    parts.append(_epoch_table(events))
    parts.append("")
    parts.append(_timeline(events, width))
    parts.append("")
    parts.append(_reconciliation_block(events))
    return "\n".join(parts)


def render_runs(runs: Sequence[Sequence[TraceEvent]], width: int = 64) -> str:
    """Render every run in a multi-run trace file, separated by blanks."""
    if not runs:
        return "(empty trace)"
    return "\n\n".join(render_run(run, width=width) for run in runs)
