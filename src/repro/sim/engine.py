"""Discrete-event simulation engine.

A minimal, fast event loop: the heap holds plain 4-tuples, compared at C
level on ``(time, seq)`` — the sequence number is unique, so comparison
never reaches the later elements, and equal-time events run in schedule
order, which makes every simulation fully deterministic.

Two kinds of entry share the heap:

* ``(time, seq, callback, args)`` — the *fast path*
  (:meth:`Engine.schedule_fast`): no handle is allocated and the event
  can never be cancelled. Request arrivals, service completions and
  sampler ticks — the events that dominate a run — all take this path.
* ``(time, seq, None, handle)`` — the cancellable path
  (:meth:`Engine.schedule`): element 2 is ``None`` as the discriminator
  and the :class:`EventHandle` rides in element 3. Cancellation is O(1)
  (invalidate the handle); cancelled entries are dropped lazily when
  they surface at the top of the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: A heap entry: ``(time, seq, callback, args)`` for fast events or
#: ``(time, seq, None, handle)`` for cancellable ones.
_Entry = tuple  # noqa: N816 - internal alias


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in
    the past)."""

    @classmethod
    def mid_dispatch(cls, mutator: str) -> "SimulationError":
        """The refusal an online mutator raises inside an engine callback."""
        return cls(f"{mutator}() called from inside an engine callback; "
                   "online mutators apply between step() calls")


class EventHandle:
    """Cancellable reference to a scheduled event.

    Attributes:
        time: simulated time at which the event fires.
        cancelled: True once :meth:`cancel` has been called.
        fired: True once the engine has executed the event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_engine")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple,
                 engine: "Engine | None" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once.

        Cancelling after the event has already fired is a no-op for the
        live count: the engine decremented it when it popped the entry.
        """
        if not self.cancelled and not self.fired and self._engine is not None:
            self._engine._live -= 1
        self.cancelled = True
        # Drop references so cancelled (or fired) handles do not pin
        # large objects — including the engine and its heap — while the
        # caller retains the handle.
        self.callback = _noop
        self.args = ()
        self._engine = None

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed by :meth:`EventHandle.cancel`."""


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
        # Count of live (not cancelled) events in the heap, maintained on
        # push/cancel/pop so `pending_events` is O(1) instead of a scan.
        self._live = 0
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
        """Number of live (not cancelled) events still queued. O(1)."""
        return self._live

    @property
    def dispatching(self) -> bool:
        """True while :meth:`run` executes callbacks; online mutators refuse then."""
        return self._running

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute ``time``.

        Returns a handle that can be cancelled with
        :meth:`EventHandle.cancel`. Events that are never cancelled
        should use :meth:`schedule_fast` instead — it skips the handle
        allocation entirely.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, engine=self)
        heapq.heappush(self._heap, (time, seq, None, handle))
        self._live += 1
        return handle

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, *args)

    def schedule_fast(self, time: float, callback: Callable[..., None],
                      args: tuple = ()) -> None:
        """Schedule a **never-cancelled** event at absolute ``time``.

        The hot-path variant of :meth:`schedule`: the event is a bare
        heap tuple, no :class:`EventHandle` is allocated and *nothing is
        returned* — by construction the caller cannot cancel it. Use
        only for events whose firing is unconditional (arrivals, service
        completions, sampler ticks); anything a policy might want to
        cancel must go through :meth:`schedule`. The PERF001 lint rule
        flags call sites that try to use a return value.

        Ordering is identical to :meth:`schedule`: both draw from the
        same sequence counter, so interleaved fast/cancellable events at
        equal times still fire in schedule order.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    def schedule_after_fast(self, delay: float, callback: Callable[..., None],
                            args: tuple = ()) -> None:
        """Never-cancelled event ``delay`` seconds from now (fast path)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule_fast(self._now + delay, callback, args)

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
                entry = heap[0]
                callback = entry[2]
                if callback is None and entry[3].cancelled:
                    heappop(heap)
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    drained = False
                    break
                heappop(heap)
                self._live -= 1
                self._now = entry[0]
                if callback is None:
                    handle = entry[3]
                    # Mark consumed *before* invoking: a cancel() during
                    # or after the callback must not decrement the live
                    # count a second time, and the handle no longer needs
                    # to pin the engine.
                    handle.fired = True
                    handle._engine = None
                    handle.callback(*handle.args)
                else:
                    callback(*entry[3])
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

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None
