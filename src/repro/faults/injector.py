"""Drives a :class:`FaultPlan` through the simulation engine.

The injector is built by :class:`~repro.sim.runner.ArraySimulation` when
a run carries a non-empty plan. Installation does three things:

* schedules one engine event per :class:`DiskFailure`, which fails the
  disk, emits ``disk_failed``, starts (or extends) the rebuild, and
  notifies the policy via :meth:`PowerPolicy.on_disk_failed`;
* hangs a :class:`DiskFaultState` off every disk targeted by a transient
  or slow-disk window, giving the disk's service loop its error draw,
  its latency inflation factor and its retry budget;
* wires the rebuild's completion back to
  :meth:`PowerPolicy.on_rebuild_complete`.

An *empty* plan installs nothing — no hooks, no RNGs, no events — so a
run with ``faults=None`` and a run with ``faults=FaultPlan()`` are
byte-identical to each other and to a fault-free run.

Per-disk transient draws come from generators spawned off the plan's
seed, so fault-injected runs stay deterministic and ``jobs=2`` output
matches ``jobs=1`` byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.disks.array import DiskArray
from repro.disks.rebuild import RebuildManager
from repro.disks.scheduling import RetryPolicy
from repro.faults.plan import FaultPlan, SlowDiskFault, TransientFault
from repro.obs.events import DiskFailed
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policies.base import PowerPolicy


class DiskFaultState:
    """Per-disk fault context consulted from the disk's service loop.

    Kept deliberately tiny: the disk calls :meth:`slow_factor` once per
    service start and :meth:`should_error` once per service completion,
    and both are cheap window scans. The RNG is only drawn inside an
    active transient window, so service order (and therefore results)
    outside the windows is untouched.
    """

    __slots__ = ("retry", "_transients", "_slows", "_rng")

    def __init__(
        self,
        retry: RetryPolicy,
        transients: tuple[TransientFault, ...],
        slows: tuple[SlowDiskFault, ...],
        rng: np.random.Generator,
    ) -> None:
        self.retry = retry
        self._transients = transients
        self._slows = slows
        self._rng = rng

    def should_error(self, now: float) -> bool:
        """Draw whether the service attempt completing at ``now`` errors."""
        probability = 0.0
        for window in self._transients:
            if window.start_s <= now < window.end_s:
                # Overlapping windows do not compound; the worst active
                # window wins.
                probability = max(probability, window.probability)
        if probability <= 0.0:
            return False
        return bool(self._rng.random() < probability)

    def slow_factor(self, now: float) -> float:
        """Service-time multiplier in effect at ``now`` (1.0 = healthy)."""
        factor = 1.0
        for window in self._slows:
            if window.start_s <= now < window.end_s:
                factor = max(factor, window.factor)
        return factor

    def extend(
        self,
        transients: tuple[TransientFault, ...],
        slows: tuple[SlowDiskFault, ...],
    ) -> None:
        """Append windows from a runtime-injected plan.

        The existing RNG keeps drawing — draws already made are history,
        and new windows join the same per-disk stream, so a given
        command sequence replays deterministically.
        """
        self._transients += transients
        self._slows += slows


class FaultInjector:
    """Schedules a plan's faults and coordinates the array's reaction."""

    def __init__(
        self,
        engine: Engine,
        array: DiskArray,
        plan: FaultPlan,
        policy: "PowerPolicy | None" = None,
    ) -> None:
        self.engine = engine
        self.array = array
        self.plan = plan
        self.policy = policy
        #: Created lazily on the first injected failure (plan.rebuild).
        self.rebuild_manager: RebuildManager | None = None
        self.failures_injected = 0
        self._installed = False

    def install(self) -> None:
        """Attach fault state and schedule the plan's failure events.

        Call once, before the run starts or (the serve path, through
        :meth:`~repro.sim.runner.ArraySimulation.inject_faults`) mid-run.
        A no-op for an empty plan. Raises ValueError, having changed
        nothing, for a plan this array cannot take.
        """
        if self._installed:
            raise RuntimeError("FaultInjector.install() called twice")
        self._apply(self.plan)
        self._installed = True

    def add_plan(self, plan: FaultPlan) -> None:
        """Install another plan mid-run (the serve ``inject-fault`` path).

        Times are *absolute* simulated seconds and must not lie in the
        past — the engine clock cannot rewind (use
        :func:`repro.faults.plan.shift_fault_plan` to rebase a relative
        plan). The run's original rebuild/retry knobs stay in force: a
        runtime plan adds faults, it does not renegotiate how the array
        reacts to them. A disk already failed (or failed twice across
        plans) no-ops, same as within one plan's schedule. A refused
        plan changes nothing.
        """
        if not self._installed:
            raise RuntimeError("add_plan() before install()")
        self._apply(plan)

    def _check(self, plan: FaultPlan) -> None:
        """Refuse a plan this array cannot take. Runs before anything of
        the plan is applied, so a refusal leaves no fault state and no
        scheduled failure behind (the plan's own fields, seed included,
        were checked when it was built)."""
        num_disks = self.array.num_disks
        now = self.engine.now
        for failure in plan.disk_failures:
            if failure.disk >= num_disks:
                raise ValueError(
                    f"fault plan fails disk {failure.disk}, but the array "
                    f"has {num_disks} disks"
                )
            if failure.time_s < now:
                raise ValueError(
                    f"disk {failure.disk} failure at t={failure.time_s} is in "
                    f"the past (now={now}); shift the plan forward"
                )
        for window in (*plan.transient_faults, *plan.slow_disk_faults):
            if window.disks is not None and any(d >= num_disks for d in window.disks):
                raise ValueError(
                    f"fault window names disks {list(window.disks)}, but the "
                    f"array has {num_disks} disks"
                )

    def _apply(self, plan: FaultPlan) -> None:
        if plan.empty:
            return
        self._check(plan)
        if plan.transient_faults or plan.slow_disk_faults:
            child_seeds = np.random.SeedSequence(plan.seed).spawn(self.array.num_disks)
            for i, disk in enumerate(self.array.disks):
                transients = tuple(
                    w for w in plan.transient_faults
                    if w.disks is None or i in w.disks
                )
                slows = tuple(
                    w for w in plan.slow_disk_faults
                    if w.disks is None or i in w.disks
                )
                if not (transients or slows):
                    continue
                if disk.fault_state is None:
                    disk.fault_state = DiskFaultState(
                        retry=self.plan.retry,
                        transients=transients,
                        slows=slows,
                        rng=np.random.default_rng(child_seeds[i]),
                    )
                else:
                    disk.fault_state.extend(transients, slows)
        for failure in plan.disk_failures:
            self.engine.schedule(failure.time_s, self._fail, failure.disk)

    def _fail(self, disk: int) -> None:
        if disk in self.array.failed_disks:
            return
        exposed = len(self.array.extent_map.extents_on(disk))
        self.array.fail_disk(disk)
        self.failures_injected += 1
        if self.array.emit is not None:
            self.array.emit(DiskFailed(
                time=self.engine.now, disk=disk, extents_exposed=exposed,
            ))
        if self.plan.rebuild:
            if self.rebuild_manager is None:
                self.rebuild_manager = RebuildManager(
                    self.array, max_inflight=self.plan.rebuild_max_inflight,
                )
                self.rebuild_manager.start(disk, self._rebuild_done)
            else:
                self.rebuild_manager.add_failure(disk)
        if self.policy is not None:
            self.policy.on_disk_failed(disk, rebuild_active=self.plan.rebuild)

    def _rebuild_done(self, _manager: RebuildManager) -> None:
        if self.policy is not None:
            self.policy.on_rebuild_complete()
