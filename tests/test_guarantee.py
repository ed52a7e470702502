"""Unit tests for the boost controller.

The controller reads a deficit tracker it does not feed; these tests
feed it through ``b.tracker.add`` as the simulation would for each
served request.
"""

from __future__ import annotations

import pytest

from repro.core.guarantee import BoostController, GuaranteeConfig
from repro.sim.stats import DeficitTracker


def make(goal=0.010, credit=10.0, enabled=True, enter=0.0) -> BoostController:
    return BoostController(
        DeficitTracker(goal),
        GuaranteeConfig(
            enter_threshold_requests=enter,
            exit_credit_requests=credit,
            enabled=enabled,
        ),
    )


def test_enter_threshold_delays_boost():
    """Small transient overshoot must not trigger a boost; sustained
    violation must."""
    b = make(enter=5.0)  # tolerate 5 requests' worth of overshoot
    b.tracker.add(0.020)     # deficit +0.010 = 1 request's worth
    assert not b.should_enter_boost()
    for _ in range(6):
        b.tracker.add(0.020)
    assert b.should_enter_boost()


def test_no_boost_while_within_goal():
    b = make()
    for _ in range(10):
        b.tracker.add(0.005)
    assert not b.should_enter_boost()
    assert b.meets_goal


def test_boost_when_cumulative_average_exceeds_goal():
    b = make()
    b.tracker.add(0.025)
    assert b.should_enter_boost()
    assert not b.meets_goal


def test_disabled_never_boosts():
    b = make(enabled=False)
    b.tracker.add(1.0)
    assert not b.should_enter_boost()


def test_enter_exit_accounting():
    b = make(credit=2.0)
    b.tracker.add(0.030)
    b.enter_boost(100.0)
    assert b.boosted
    assert b.boosts_entered == 1
    # Not enough credit yet.
    b.tracker.add(0.005)
    assert not b.should_exit_boost()
    # Drive the deficit below -2 * goal.
    for _ in range(20):
        b.tracker.add(0.005)
    assert b.should_exit_boost()
    b.exit_boost(150.0)
    assert not b.boosted
    assert b.boost_seconds == pytest.approx(50.0)


def test_double_enter_raises():
    b = make()
    b.enter_boost(0.0)
    with pytest.raises(RuntimeError):
        b.enter_boost(1.0)


def test_exit_without_enter_raises():
    with pytest.raises(RuntimeError):
        make().exit_boost(0.0)


def test_finish_closes_open_boost():
    b = make()
    b.enter_boost(10.0)
    b.finish(25.0)
    assert b.boost_seconds == pytest.approx(15.0)
    assert b.boosted  # state unchanged, only accounting closed


def test_finish_is_idempotent():
    # Regression: finish() used to reset _boost_started to `now`, so a
    # second finish (or a later exit_boost) double-counted the interval.
    b = make()
    b.enter_boost(10.0)
    b.finish(25.0)
    b.finish(40.0)
    assert b.boost_seconds == pytest.approx(15.0)


def test_exit_after_finish_does_not_double_count():
    b = make()
    b.enter_boost(10.0)
    b.finish(25.0)
    b.exit_boost(40.0)
    assert not b.boosted
    assert b.boost_seconds == pytest.approx(15.0)


def test_should_exit_requires_boosted():
    b = make(credit=0.0)
    for _ in range(5):
        b.tracker.add(0.001)
    assert not b.should_exit_boost()  # not boosted


def test_should_enter_requires_not_boosted():
    b = make()
    b.tracker.add(1.0)
    b.enter_boost(0.0)
    assert not b.should_enter_boost()


def test_exit_credit_zero_exits_at_breakeven():
    b = make(credit=0.0)
    b.tracker.add(0.020)
    b.enter_boost(0.0)
    b.tracker.add(0.005)
    assert not b.should_exit_boost()   # deficit still +0.005
    b.tracker.add(0.004)
    b.tracker.add(0.001)
    assert b.should_exit_boost()       # deficit -0.0 (just at zero)


def test_guarantee_invariant_cumulative_average():
    """The controller's end-state test: if it never reports a violation,
    the cumulative average is within the goal."""
    b = make()
    latencies = [0.004, 0.009, 0.011, 0.006, 0.012, 0.008]
    for lat in latencies:
        b.tracker.add(lat)
    assert b.cumulative_average == pytest.approx(sum(latencies) / len(latencies))
    assert b.meets_goal == (b.cumulative_average <= 0.010 + 1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        GuaranteeConfig(exit_credit_requests=-1.0)
    with pytest.raises(ValueError):
        GuaranteeConfig(enter_threshold_requests=-1.0)
