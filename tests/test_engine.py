"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(3.0, order.append, "c")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(2.0, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_fire_in_schedule_order(engine):
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(5.0, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_callbacks_receive_their_args(engine):
    seen = []
    engine.schedule(1.0, lambda a, b: seen.append((a, b)), 1, 2)
    engine.schedule_after(2.0, lambda: seen.append(()))
    engine.run()
    assert seen == [(1, 2), ()]


def test_schedule_returns_no_handle(engine):
    """Events cannot be cancelled, so there is nothing to hand back."""
    assert engine.schedule(1.0, lambda: None) is None
    assert engine.schedule_after(1.0, lambda: None) is None


def test_clock_advances_to_event_time(engine):
    seen = []
    engine.schedule(4.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [4.5]
    assert engine.now == 4.5


def test_schedule_in_past_raises(engine):
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)


def test_schedule_after_negative_delay_raises(engine):
    with pytest.raises(SimulationError):
        engine.schedule_after(-0.1, lambda: None)


def test_schedule_after_uses_current_time(engine):
    times = []
    def chain():
        times.append(engine.now)
        if len(times) < 3:
            engine.schedule_after(1.5, chain)
    engine.schedule(0.0, chain)
    engine.run()
    assert times == [0.0, 1.5, 3.0]


def test_run_until_stops_before_later_events(engine):
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == ["early"]
    assert engine.now == 5.0  # clock advanced to the horizon
    engine.run()
    assert fired == ["early", "late"]


def test_stop_exit_does_not_fast_forward_to_until(engine):
    """Early exit via `stop` must leave the clock at the last executed
    event; fast-forwarding to `until` would stretch any window accounted
    from engine.now (regression test)."""
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    engine.run(until=100.0, stop=lambda: len(fired) >= 2)
    assert fired == [0, 1]
    assert engine.now == 1.0


def test_max_events_exit_does_not_fast_forward_to_until(engine):
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run(until=100.0, max_events=3)
    assert engine.now == 2.0


def test_drained_run_still_advances_to_until(engine):
    """The legitimate fast-forward — queue drained before the horizon —
    must keep working."""
    engine.schedule(1.0, lambda: None)
    engine.run(until=10.0, stop=lambda: False)
    assert engine.now == 10.0


def test_events_executed_accumulates(engine):
    for i in range(3):
        engine.schedule(float(i), lambda: None)
    engine.run(max_events=2)
    assert engine.events_executed == 2
    engine.run()
    assert engine.events_executed == 3


def test_run_max_events(engine):
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    assert engine.run(max_events=2) == 2
    assert fired == [0, 1]


def test_run_stop_predicate(engine):
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    engine.run(stop=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute(engine):
    order = []
    def outer():
        order.append("outer")
        engine.schedule_after(0.0, order.append, "inner")
    engine.schedule(1.0, outer)
    engine.run()
    assert order == ["outer", "inner"]


def test_pending_events_counts_live_only(engine):
    """Only events still queued count: a fired event stops counting."""
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    engine.run(until=1.5)
    assert engine.pending_events == 1


def test_pending_events_drops_to_zero_after_run(engine):
    for t in (1.0, 2.0, 3.0):
        engine.schedule(t, lambda: None)
    engine.run()
    assert engine.pending_events == 0


def test_pending_events_tracks_mid_run_scheduling(engine):
    """The count stays exact through executed pops and events scheduled
    from inside callbacks."""
    observed = []

    def first():
        observed.append(engine.pending_events)  # the later event remains
        engine.schedule_after(1.0, second)
        observed.append(engine.pending_events)

    def second():
        observed.append(engine.pending_events)

    engine.schedule(1.0, first)
    engine.run()
    assert observed == [0, 1, 0]
    assert engine.pending_events == 0


def test_reentrant_run_raises(engine):
    def nested():
        engine.run()
    engine.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        engine.run()


def test_run_returns_executed_count(engine):
    for i in range(4):
        engine.schedule(float(i), lambda: None)
    assert engine.run() == 4



# -- hot-path call shapes ----------------------------------------------------
# Disk completions, array dispatch and trace arrivals schedule their events
# from inside callbacks, with plain positional arguments, on the same two
# calls as every other event.


def test_fast_events_fire_in_time_order(engine):
    """Relative delays queued from inside one callback fire in time
    order, not in the order they were queued."""
    order = []
    def dispatch():
        engine.schedule_after(2.0, order.append, "c")
        engine.schedule_after(0.0, order.append, "a")
        engine.schedule_after(1.0, order.append, "b")
    engine.schedule(1.0, dispatch)
    engine.run()
    assert order == ["a", "b", "c"]


def test_fast_and_cancellable_interleave_in_schedule_order(engine):
    """schedule and schedule_after share one sequence counter, so events
    at one timestamp fire strictly in schedule order, whichever call
    queued them (an idle timer that a later one superseded keeps its
    place and fires as a no-op)."""
    order = []
    engine.schedule(5.0, order.append, "first")
    engine.schedule_after(5.0, order.append, "second")
    engine.schedule(5.0, order.append, "third")
    engine.schedule_after(5.0, order.append, "fourth")
    engine.run()
    assert order == ["first", "second", "third", "fourth"]


def test_fast_schedule_in_past_raises(engine):
    """A callback that schedules before the current time is refused
    mid-run, and the refused event is not queued."""
    def late():
        engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, late)
    with pytest.raises(SimulationError):
        engine.run()
    assert engine.pending_events == 0


def test_fast_schedule_after_negative_delay_raises(engine):
    """A refused negative delay queues nothing and leaves the queue as
    it was."""
    engine.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_after(-0.1, lambda: None)
    assert engine.pending_events == 1
    assert engine.run() == 1


def test_fast_schedule_after_uses_current_time(engine):
    fired = []
    engine.schedule(2.0, lambda: engine.schedule_after(1.5, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [3.5]


def test_pending_events_counts_fast_entries(engine):
    """Events from schedule and schedule_after count alike, including
    those queued from inside a callback."""
    engine.schedule(1.0, lambda: engine.schedule_after(5.0, lambda: None))
    engine.schedule_after(2.0, lambda: None)
    assert engine.pending_events == 2
    engine.run(until=1.5)
    assert engine.pending_events == 2
    engine.run()
    assert engine.pending_events == 0
