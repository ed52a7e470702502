"""Discrete-event simulation engine.

A minimal, fast event loop. Every heap entry is one plain 4-tuple,
``(time, seq, callback, args)``, compared at C level on ``(time, seq)``
— the sequence number is unique, so comparison never reaches the later
elements, and equal-time events run in schedule order, which makes
every simulation fully deterministic.

Events cannot be cancelled. A timer that a later one may supersede
carries a generation in its arguments and does nothing when it fires
stale: :class:`repro.policies.tpm.IdleSpindownManager` keeps a per-disk
arm count, and Hibernator's staggered speed changes keep a wave
generation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: A heap entry: ``(time, seq, callback, args)``.
_Entry = tuple  # noqa: N816 - internal alias


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in
    the past)."""

    @classmethod
    def mid_dispatch(cls, mutator: str) -> "SimulationError":
        """The refusal an online mutator raises inside an engine callback."""
        return cls(f"{mutator}() called from inside an engine callback; "
                   "online mutators apply between step() calls")


class Engine:
    """Binary-heap discrete-event scheduler.

    Typical use::

        engine = Engine()
        engine.schedule(1.5, my_callback, arg1, arg2)
        engine.run()

    Callbacks receive their scheduled arguments and may schedule further
    events. Time never goes backwards; scheduling an event before
    ``engine.now`` raises :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        #: Lifetime count of callbacks executed, across all run() calls.
        #: Deterministic for a given simulation, so it doubles as a
        #: cheap progress/throughput metric (events per wall-second).
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def dispatching(self) -> bool:
        """True while :meth:`run` executes callbacks; online mutators refuse then."""
        return self._running

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire at absolute ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule(self._now + delay, callback, *args)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> int:
        """Process events in time order.

        Args:
            until: stop once the next event would fire after this time
                (the clock advances to ``until`` when the loop drains,
                but not when ``stop`` or ``max_events`` ends it early).
            max_events: safety valve; stop after this many callbacks.
            stop: optional predicate checked after every callback; the
                loop exits as soon as it returns True (used to end a run
                when the workload drains even though periodic timers are
                still queued).

        Returns:
            The number of callbacks executed.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        # True when the loop ran out of work at or before `until` (queue
        # empty, or the next event lies beyond the horizon). Only then may
        # the clock fast-forward to `until`; an early exit via `stop` or
        # `max_events` must leave the clock at the last executed event, or
        # the energy-accounting window silently stretches.
        drained = True
        # Locals for the hot loop: every iteration would otherwise pay
        # repeated attribute/global lookups for the heap and heappop.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    drained = False
                    break
                time, _, callback, args = heappop(heap)
                self._now = time
                callback(*args)
                executed += 1
                if stop is not None and stop():
                    drained = False
                    break
        finally:
            self._running = False
            self.events_executed += executed
        if until is not None and drained and self._now < until:
            self._now = until
        return executed
