"""A single multi-speed disk: FCFS queue + speed state machine + energy.

State machine::

    STANDBY --(spin up)--> TRANSITION --> IDLE <--> ACTIVE
       ^                                    |
       +----------- (spin down) ------------+

* ``STANDBY``: spindle stopped (rpm 0), drawing standby power. Ops that
  arrive are queued and trigger an automatic spin-up.
* ``TRANSITION``: spindle accelerating/decelerating (spin-up, spin-down
  or speed change). No service; transition energy is accounted from the
  spec's lump-sum transition costs.
* ``IDLE``: spinning at :attr:`rpm`, queue empty.
* ``ACTIVE``: serving exactly one op (FCFS).

Speed changes requested while the disk is busy take effect when the
in-flight op completes; requests that arrive mid-transition wait for the
spindle. This is the behaviour the DRPM/Hibernator hardware model
assumes.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import DiskFaultState

from repro.disks.mechanics import DiskMechanics
from repro.disks.power import EnergyMeter
from repro.disks.scheduling import QueueDiscipline, make_discipline
from repro.disks.specs import DiskSpec
from repro.obs.events import OpRetried, SpeedTransition, TraceEvent
from repro.sim.engine import Engine
from repro.sim.request import DiskOp

#: Rotation fractions drawn per refill of a disk's draw buffer. One
#: ``rng.random(n)`` call yields the same doubles, in the same order, as
#: ``n`` scalar draws, and costs a fraction of them; the buffer's float
#: objects are the price (about 8 KiB per sampling disk).
ROTATION_DRAW_BLOCK = 256


class DiskState(enum.Enum):
    """Spindle/service state of a disk."""

    STANDBY = "standby"
    TRANSITION = "transition"
    IDLE = "idle"
    ACTIVE = "active"
    FAILED = "failed"


class MultiSpeedDisk:
    """One multi-speed disk attached to a simulation engine.

    Args:
        engine: the event loop this disk schedules on.
        spec: hardware parameters.
        index: position in the array (used in labels and stats).
        total_blocks: number of addressable block slots; seek distances
            are normalized against this span.
        rng: randomness for rotational latency; None gives deterministic
            (expected) latencies.
        initial_rpm: starting speed; defaults to full speed.
        scheduler: queue discipline name ('fcfs', 'sstf', 'scan').
    """

    def __init__(
        self,
        engine: Engine,
        spec: DiskSpec,
        index: int = 0,
        total_blocks: int = 36_000,
        rng: np.random.Generator | None = None,
        initial_rpm: int | None = None,
        scheduler: str = "fcfs",
    ) -> None:
        if initial_rpm is None:
            initial_rpm = spec.max_rpm
        if initial_rpm != 0:
            spec.level_of(initial_rpm)  # validate
        self.engine = engine
        self.spec = spec
        self.mechanics = DiskMechanics(spec)
        self.index = index
        self.total_blocks = total_blocks
        self.rng = rng
        # Buffered rotation fractions from ``rng``, consumed in order;
        # filled on the first sampled op (see _start_service).
        self._draws: list[float] = []
        self._draw_index = 0
        self.rpm = initial_rpm
        self.state = DiskState.STANDBY if initial_rpm == 0 else DiskState.IDLE
        self.queue: QueueDiscipline = make_discipline(scheduler)
        self.head_block = 0
        self.meter = EnergyMeter(
            start_time=engine.now,
            watts=spec.standby_watts if initial_rpm == 0 else spec.idle_watts(initial_rpm),
            label="standby" if initial_rpm == 0 else "idle",
        )
        # Speed the disk should run at when spinning; spin-ups go here.
        self._requested_rpm = initial_rpm if initial_rpm != 0 else spec.max_rpm
        # Per-rpm power caches: idle_watts does a float pow per call and
        # both are hit on every service start/completion, while a disk
        # only ever runs at a handful of discrete speeds.
        self._idle_watts_cache: dict[int, float] = {}
        self._active_watts_cache: dict[int, float] = {}
        self._in_flight: DiskOp | None = None
        self._transition_target: int | None = None
        # Observability hooks for policies (TPM idle timers, DRPM sampling).
        self.on_idle: Callable[["MultiSpeedDisk"], None] | None = None
        self.on_activity: Callable[["MultiSpeedDisk"], None] | None = None
        # Structured-trace hook (repro.obs); None = tracing disabled.
        self.emit: Callable[[TraceEvent], None] | None = None
        # Fault-injection hook (repro.faults.DiskFaultState); None means
        # no faults target this disk and every fault branch is skipped,
        # keeping the no-fault path byte-identical.
        self.fault_state: "DiskFaultState | None" = None
        # Counters.
        self.ops_completed = 0
        self.bytes_transferred = 0
        self.spinups = 0
        self.speed_changes = 0
        self.op_errors = 0
        self.op_retries = 0
        self.last_activity_time = engine.now
        self.failed = False

    # -- observability -----------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Ops waiting (not counting the one in service)."""
        return len(self.queue)

    @property
    def is_spinning(self) -> bool:
        return self.rpm > 0 and self.state is not DiskState.TRANSITION

    @property
    def requested_rpm(self) -> int:
        """Spinning speed the disk will run at when (re)activated."""
        return self._requested_rpm

    @property
    def busy(self) -> bool:
        return self._in_flight is not None

    # -- I/O ----------------------------------------------------------------

    def submit(self, op: DiskOp) -> None:
        """Queue a physical op; wakes the disk from standby if needed."""
        if self.failed:
            raise RuntimeError(f"disk {self.index} has failed; route around it")
        now = self.engine.now
        op.enqueued = now
        op.disk_index = self.index
        self.queue.push(op)
        self.last_activity_time = now
        if self.on_activity is not None:
            self.on_activity(self)
        if self.state is DiskState.IDLE:
            self._start_service()
        elif self.state is DiskState.STANDBY:
            self._begin_transition(self._requested_rpm or self.spec.max_rpm)
        # ACTIVE / TRANSITION: op waits in queue.

    # -- speed control -------------------------------------------------------

    def set_speed(self, rpm: int) -> None:
        """Request a spindle speed (0 = spin down to standby).

        Takes effect immediately when idle/standby, after the in-flight
        op when active, and after the current transition when already
        transitioning. A spin-down request is ignored while ops are
        queued or in flight (the policy is expected not to strand work).
        Ignored on a failed disk.
        """
        if self.failed:
            return
        if rpm != 0:
            self.spec.level_of(rpm)  # validate
        if rpm == 0 and (self.queue or self._in_flight is not None):
            return
        if rpm != 0:
            self._requested_rpm = rpm
        if self.state is DiskState.ACTIVE:
            return  # applied in _complete()
        if self.state is DiskState.TRANSITION:
            return  # applied when the transition ends
        if rpm == self.rpm:
            return
        self._begin_transition(rpm)

    def spin_down(self) -> None:
        """Convenience wrapper: request standby."""
        self.set_speed(0)

    def fail(self) -> None:
        """Fail the disk (fault injection).

        The array stops routing to it immediately; ops already queued or
        in flight are allowed to drain (a graceful failure window), then
        the disk goes to :attr:`DiskState.FAILED` and draws no power.
        """
        if self.failed:
            return
        self.failed = True
        if self._in_flight is None and not self.queue and self.state is not DiskState.TRANSITION:
            self._finalize_failure()

    def _finalize_failure(self) -> None:
        self.state = DiskState.FAILED
        self.rpm = 0
        self.meter.update(self.engine.now, 0.0, "failed")

    def force_speed(self, rpm: int) -> None:
        """Set the spindle speed instantaneously, with no transition.

        Initialization-only: models an array that was already running in
        the desired configuration before the simulated window opened
        (e.g. a primed steady state). Refuses once any I/O has touched
        the disk.
        """
        if self.ops_completed or self.queue or self._in_flight is not None:
            raise RuntimeError("force_speed is initialization-only; the disk has seen I/O")
        if self.state is DiskState.TRANSITION:
            raise RuntimeError("force_speed during a transition is not meaningful")
        if rpm != 0:
            self.spec.level_of(rpm)  # validate
            self._requested_rpm = rpm
        self.rpm = rpm
        now = self.engine.now
        if rpm == 0:
            self.state = DiskState.STANDBY
            self.meter.update(now, self.spec.standby_watts, "standby")
        else:
            self.state = DiskState.IDLE
            self.meter.update(now, self.spec.idle_watts(rpm), "idle")

    # -- internals ------------------------------------------------------------

    def _idle_watts(self, rpm: int) -> float:
        watts = self._idle_watts_cache.get(rpm)
        if watts is None:
            watts = self._idle_watts_cache[rpm] = self.spec.idle_watts(rpm)
        return watts

    def _active_watts(self, rpm: int) -> float:
        watts = self._active_watts_cache.get(rpm)
        if watts is None:
            watts = self._active_watts_cache[rpm] = self.spec.active_watts(rpm)
        return watts

    def _begin_transition(self, to_rpm: int) -> None:
        now = self.engine.now
        if to_rpm == self.rpm:
            return
        duration, joules = self.spec.transition_cost(self.rpm, to_rpm)
        self.state = DiskState.TRANSITION
        self._transition_target = to_rpm
        # Transition energy is the spec's lump sum; no time-based draw on
        # top (the data-sheet joules already include the interval).
        self.meter.update(now, 0.0, "transition")
        self.meter.add_impulse(joules, "transition")
        if self.rpm == 0 and to_rpm > 0:
            self.spinups += 1
        elif self.rpm > 0 and to_rpm > 0:
            self.speed_changes += 1
        if self.emit is not None:
            self.emit(SpeedTransition(
                time=now, disk=self.index, from_rpm=self.rpm, to_rpm=to_rpm,
            ))
        self.engine.schedule_after(duration, self._finish_transition)

    def _finish_transition(self) -> None:
        now = self.engine.now
        target = self._transition_target
        assert target is not None, "transition finished without a target"
        self._transition_target = None
        self.rpm = target
        if self.failed:
            if not self.queue:
                self._finalize_failure()
            elif self.rpm == 0:
                self._begin_transition(self._requested_rpm or self.spec.max_rpm)
            else:
                self.state = DiskState.IDLE
                self.meter.update(now, self._idle_watts(self.rpm), "idle")
                self._start_service()
            return
        if self.rpm == 0:
            self.state = DiskState.STANDBY
            self.meter.update(now, self.spec.standby_watts, "standby")
            if self.queue:
                # An op arrived during spin-down: bounce back up.
                self._begin_transition(self._requested_rpm or self.spec.max_rpm)
            return
        # Spinning. Honour a speed request that changed mid-transition.
        if self._requested_rpm != self.rpm and self._requested_rpm > 0:
            self._begin_transition(self._requested_rpm)
            return
        if self.queue:
            self.state = DiskState.IDLE
            self.meter.update(now, self._idle_watts(self.rpm), "idle")
            self._start_service()
        else:
            self.state = DiskState.IDLE
            self.meter.update(now, self._idle_watts(self.rpm), "idle")
            self._notify_idle()

    def _start_service(self) -> None:
        assert self.state is DiskState.IDLE and self.queue, "bad service start"
        now = self.engine.now
        op = self.queue.pop(self.head_block)
        self._in_flight = op
        self.state = DiskState.ACTIVE
        self.meter.update(now, self._active_watts(self.rpm), "active")
        rng = self.rng
        if rng is None:
            draw = None
        else:
            draws = self._draws
            i = self._draw_index
            if i == len(draws):
                draws = self._draws = rng.random(ROTATION_DRAW_BLOCK).tolist()
                i = 0
            draw = draws[i]
            self._draw_index = i + 1
        # Positional on purpose: this is the per-op call.
        service = self.mechanics.service_time(
            self.head_block, op.block, self.total_blocks, op.size, self.rpm, draw,
        )
        if self.fault_state is not None:
            service *= self.fault_state.slow_factor(now)
        op.started = now
        self.engine.schedule_after(service, self._complete, op)

    def _complete(self, op: DiskOp) -> None:
        now = self.engine.now
        if self.fault_state is not None and self._attempt_failed(op):
            return  # retry scheduled; completion withheld for now
        op.finished = now
        self._in_flight = None
        self.head_block = op.block
        if not op.failed:
            self.ops_completed += 1
            self.bytes_transferred += op.size
        self.last_activity_time = now
        self.state = DiskState.IDLE
        self.meter.update(now, self._idle_watts(self.rpm), "idle")
        if op.on_complete is not None:
            op.on_complete(op)
        if self.failed:
            if self.queue:
                self._start_service()  # drain the tail, then die
            else:
                self._finalize_failure()
            return
        if self.state is not DiskState.IDLE:
            # The completion callback changed our state (e.g. spun us
            # down); nothing more to do here.
            return
        if self._requested_rpm != self.rpm:
            self._begin_transition(self._requested_rpm)
        elif self.queue:
            self._start_service()
        else:
            self._notify_idle()

    def _notify_idle(self) -> None:
        if self.on_idle is not None:
            self.on_idle(self)

    # -- fault injection ---------------------------------------------------------

    def _attempt_failed(self, op: DiskOp) -> bool:
        """Apply an injected transient error to a finishing service attempt.

        Returns True when the op's completion is withheld because a retry
        was scheduled; returns False when the attempt succeeded or the op
        gave up (``op.failed`` set), in which case :meth:`_complete`
        proceeds to deliver the completion.
        """
        fault_state = self.fault_state
        assert fault_state is not None
        now = self.engine.now
        if not fault_state.should_error(now):
            return False
        self.op_errors += 1
        op.attempts += 1
        if op.attempts >= fault_state.retry.max_attempts or self.failed:
            # Budget exhausted (or the disk is already draining toward
            # FAILED): surface the failure to the caller.
            op.failed = True
            return False
        self.op_retries += 1
        backoff = fault_state.retry.backoff_for(op.attempts)
        if self.emit is not None:
            self.emit(OpRetried(
                time=now, disk=self.index, attempt=op.attempts,
                op_kind=op.kind.value, backoff_s=backoff,
            ))
        # The op leaves service and re-queues after the backoff; the disk
        # is free to serve the rest of its queue meanwhile.
        self._in_flight = None
        self.head_block = op.block
        self.last_activity_time = now
        self.state = DiskState.IDLE
        self.meter.update(now, self._idle_watts(self.rpm), "idle")
        self.engine.schedule_after(backoff, self._resubmit, op)
        if self._requested_rpm != self.rpm:
            self._begin_transition(self._requested_rpm)
        elif self.queue:
            self._start_service()
        else:
            self._notify_idle()
        return True

    def _resubmit(self, op: DiskOp) -> None:
        """Re-queue an op after its retry backoff elapsed."""
        now = self.engine.now
        if self.failed:
            # The disk died while the op waited out its backoff; deliver
            # the completion as a failure so the caller can unwind.
            op.failed = True
            op.finished = now
            if op.on_complete is not None:
                op.on_complete(op)
            return
        self.queue.push(op)
        self.last_activity_time = now
        if self.on_activity is not None:
            self.on_activity(self)
        if self.state is DiskState.IDLE:
            self._start_service()
        elif self.state is DiskState.STANDBY:
            self._begin_transition(self._requested_rpm or self.spec.max_rpm)
        # ACTIVE / TRANSITION: op waits in queue.

    # -- accounting -------------------------------------------------------------

    def finish_accounting(self, now: float) -> float:
        """Close the energy meter; returns total joules consumed."""
        return self.meter.finish(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiSpeedDisk(#{self.index}, {self.state.value}, {self.rpm} rpm, "
            f"queue={self.queue_length})"
        )
