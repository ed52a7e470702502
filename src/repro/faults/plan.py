"""Declarative fault plans.

A :class:`FaultPlan` names every fault a run will inject — whole-disk
failures at scheduled times, transient per-op error windows with a
failure probability, and slow-disk windows that inflate service times —
plus the retry budget foreground ops get against transient errors and
whether failures trigger a rebuild.

Plans are frozen dataclasses, so they are picklable (parallel workers
receive them inside :class:`~repro.analysis.parallel.RunSpec`) and the
result cache keys them by content automatically. The JSON mapping used
by ``repro run --faults plan.json`` round-trips through
:func:`fault_plan_to_dict` / :func:`fault_plan_from_dict`; see
``docs/faults.md`` for the schema.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.disks.scheduling import RetryPolicy, check_finite_fields


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (JSON ``true`` is a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_window_disks(disks: tuple[int, ...] | None) -> None:
    if disks is not None and not all(_is_int(d) and d >= 0 for d in disks):
        raise ValueError(f"window disks must be integers >= 0, got {disks!r}")


@dataclass(frozen=True)
class DiskFailure:
    """Fail one disk outright at ``time_s`` (it never recovers)."""

    time_s: float
    disk: int

    def __post_init__(self) -> None:
        check_finite_fields(self, "time_s")
        if self.time_s < 0:
            raise ValueError(f"DiskFailure.time_s must be >= 0, got {self.time_s}")
        if not _is_int(self.disk) or self.disk < 0:
            raise ValueError(f"DiskFailure.disk must be an integer >= 0, got {self.disk!r}")


@dataclass(frozen=True)
class TransientFault:
    """A window during which service attempts fail with ``probability``.

    Attributes:
        start_s / end_s: half-open window ``[start_s, end_s)`` in
            simulated seconds.
        probability: chance that one service attempt errors and retries.
        disks: disks the window applies to; None = every disk.
    """

    start_s: float
    end_s: float
    probability: float
    disks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_finite_fields(self, "start_s", "end_s", "probability")
        if self.start_s < 0 or self.end_s < self.start_s:
            raise ValueError(
                f"bad transient window [{self.start_s}, {self.end_s})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        _check_window_disks(self.disks)


@dataclass(frozen=True)
class SlowDiskFault:
    """A window during which service times are multiplied by ``factor``.

    Models a sick-but-alive disk (media retries, vibration): latency
    inflates, energy accrues over the longer service, but ops succeed.
    """

    start_s: float
    end_s: float
    factor: float
    disks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_finite_fields(self, "start_s", "end_s", "factor")
        if self.start_s < 0 or self.end_s < self.start_s:
            raise ValueError(f"bad slow-disk window [{self.start_s}, {self.end_s})")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        _check_window_disks(self.disks)


@dataclass(frozen=True)
class FaultPlan:
    """Every fault one run will inject, plus how the array reacts.

    Attributes:
        disk_failures: whole-disk failures, any order (the injector
            schedules each at its own time).
        transient_faults: per-op error windows.
        slow_disk_faults: latency-inflation windows.
        retry: retry/backoff budget ops get against transient errors.
        rebuild: start/extend a :class:`RebuildManager` on each failure.
        rebuild_max_inflight: rebuild concurrency bound.
        seed: base seed (an integer >= 0) for the per-disk
            transient-error draws; spawned per disk so jobs=2 runs stay
            byte-identical to jobs=1.
    """

    disk_failures: tuple[DiskFailure, ...] = ()
    transient_faults: tuple[TransientFault, ...] = ()
    slow_disk_faults: tuple[SlowDiskFault, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    rebuild: bool = True
    rebuild_max_inflight: int = 2
    seed: int = 1234

    def __post_init__(self) -> None:
        if not _is_int(self.rebuild_max_inflight) or self.rebuild_max_inflight < 1:
            raise ValueError(f"rebuild_max_inflight must be an integer >= 1, "
                             f"got {self.rebuild_max_inflight!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.rebuild, bool):
            raise ValueError(f"rebuild must be true or false, got {self.rebuild!r}")
        seen: set[int] = set()
        for failure in self.disk_failures:
            if failure.disk in seen:
                raise ValueError(f"disk {failure.disk} fails more than once")
            seen.add(failure.disk)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing; an empty plan installs no
        hooks at all, keeping results byte-identical to a fault-free run."""
        return not (self.disk_failures or self.transient_faults or self.slow_disk_faults)


def shift_fault_plan(plan: FaultPlan, offset_s: float) -> FaultPlan:
    """Return a copy of ``plan`` with every fault time moved by ``offset_s``.

    The serve daemon's ``inject-fault`` path: an operator writes a plan
    with times relative to "now" (fail disk 2 in 60 seconds) and the
    daemon rebases it onto absolute simulated time before handing it to
    the running injector. Windows shift whole; the retry/rebuild knobs
    and the seed are untouched.
    """
    if offset_s < 0:
        raise ValueError(f"offset_s must be >= 0, got {offset_s}")
    if plan.empty or offset_s == 0.0:
        return plan
    return dataclasses.replace(
        plan,
        disk_failures=tuple(
            dataclasses.replace(f, time_s=f.time_s + offset_s)
            for f in plan.disk_failures
        ),
        transient_faults=tuple(
            dataclasses.replace(w, start_s=w.start_s + offset_s, end_s=w.end_s + offset_s)
            for w in plan.transient_faults
        ),
        slow_disk_faults=tuple(
            dataclasses.replace(w, start_s=w.start_s + offset_s, end_s=w.end_s + offset_s)
            for w in plan.slow_disk_faults
        ),
    )


def fault_plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    """Flatten a plan into the JSON mapping ``--faults`` reads."""
    return dataclasses.asdict(plan)


def _checked_keys(data: Any, cls: type, where: str) -> dict[str, Any]:
    """``data`` as the JSON object for one ``cls``: every key a field of
    ``cls`` and every field without a default present."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    known = sorted(f.name for f in fields)
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known: {known}")
    missing = [
        f.name for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{where} is missing keys {missing}; known: {known}")
    return data


def _entries(data: dict[str, Any], section: str, cls: type) -> tuple[Any, ...]:
    """Build each entry of one list section, its keys checked like the
    plan's own; a window's ``disks`` list becomes a tuple."""
    entries = data.get(section, ())
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{section} must be a list, got {entries!r}")
    built = []
    for i, entry in enumerate(entries):
        where = f"{section}[{i}]"
        fields = dict(_checked_keys(entry, cls, where))
        disks = fields.get("disks")
        if disks is not None:
            if not isinstance(disks, (list, tuple)):
                raise ValueError(f"{where}.disks must be a list of disks or null, got {disks!r}")
            fields["disks"] = tuple(disks)
        built.append(cls(**fields))
    return tuple(built)


def fault_plan_from_dict(data: dict[str, Any]) -> FaultPlan:
    """Build a plan from the ``--faults`` JSON mapping.

    Unknown keys are rejected, at the top level, in every
    ``disk_failures``/``transient_faults``/``slow_disk_faults`` entry and
    in ``retry``, so a typo ('probabilty', ``"disk"`` for ``"disks"`` in
    a window) fails loudly instead of silently injecting nothing or
    widening a window to every disk. Every value is passed through as
    parsed, not coerced, so the plan's own checks refuse
    ``"seed": 3.7``, ``"disk": true``, ``"rebuild": "no"``,
    ``"time_s": "1"``, ``"probability": true``, a NaN time or
    ``"max_attempts": 2.5`` instead of reading them as 3, 1, yes, 1.0,
    1.0, a poisoned clock and a fractional retry budget.
    """
    _checked_keys(data, FaultPlan, "FaultPlan")
    retry_data = data.get("retry")
    retry = (
        RetryPolicy(**_checked_keys(retry_data, RetryPolicy, "retry"))
        if retry_data is not None
        else RetryPolicy()
    )
    return FaultPlan(
        disk_failures=_entries(data, "disk_failures", DiskFailure),
        transient_faults=_entries(data, "transient_faults", TransientFault),
        slow_disk_faults=_entries(data, "slow_disk_faults", SlowDiskFault),
        retry=retry,
        rebuild=data.get("rebuild", True),
        rebuild_max_inflight=data.get("rebuild_max_inflight", 2),
        seed=data.get("seed", 1234),
    )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a plan from a JSON file (the ``--faults`` loader)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
    return fault_plan_from_dict(data)


def save_fault_plan(plan: FaultPlan, path: str | Path) -> None:
    """Write a plan as JSON (the inverse of :func:`load_fault_plan`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fault_plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")
