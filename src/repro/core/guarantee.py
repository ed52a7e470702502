"""The response-time guarantee: deficit tracking + full-speed boost.

Hibernator promises that the *cumulative average* response time stays at
or below the goal whenever the full-speed array could meet it. The
mechanism is a running deficit

    D = sum over served requests of (latency - goal)

which is exactly ``n * (cumulative_average - goal)``. Whenever D turns
positive the guarantee is at risk: the controller **boosts** — spins
every disk to full speed and cancels background migration — and holds
the boost until enough negative slack (credit) has been rebuilt, with a
hysteresis margin so the array does not oscillate at the boundary.

Boosting is what lets the rest of the system be aggressive: the CR
optimizer can pick slow, cheap configurations knowing that a prediction
error is bounded by the boost's reaction, not by the epoch length.

The controller owns no deficit of its own: it reads the run's one
:class:`~repro.sim.stats.DeficitTracker`, which the simulation feeds
with every *served* request's latency (failed requests have none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.events import BoostEnter, BoostExit, TraceEvent
from repro.sim.stats import DeficitTracker


@dataclass
class GuaranteeConfig:
    """Boost controller knobs.

    Attributes:
        enter_threshold_requests: enter the boost once the deficit
            exceeds ``goal * enter_threshold_requests``. A boost is not
            free — transitioning spindles cannot serve, so reacting to
            every sign-flip of the deficit would *cause* violations on
            transient blips. The threshold bounds the overshoot a boost
            is allowed to react to (the paper checks at intervals for
            the same reason).
        exit_credit_requests: extra credit required before leaving the
            boost: exit is allowed once the deficit has been driven to
            ``-goal * exit_credit_requests`` or below. The controller
            only *checks* this at epoch boundaries (exiting mid-epoch
            would return to a configuration chosen for stale heat — the
            exact mistake that triggered the boost). Default 0: exit as
            soon as the cumulative average is back at the goal.
        enabled: set False for the A1 ablation (no guarantee).
        degraded_enter_factor: multiplier applied to the entry threshold
            while the array is degraded (a disk failed / rebuilding).
            Degraded-mode latency spikes are structural — reconstruction
            fan-out, rebuild contention — not a prediction error a boost
            can fix cheaply, but the guarantee still holds; a factor
            below 1 makes the boost *more* eager during the exposure
            window, which is the safe direction.
    """

    enter_threshold_requests: float = 50.0
    exit_credit_requests: float = 0.0
    enabled: bool = True
    degraded_enter_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.enter_threshold_requests < 0:
            raise ValueError("enter_threshold_requests must be non-negative")
        if self.exit_credit_requests < 0:
            raise ValueError("exit_credit_requests must be non-negative")
        if self.degraded_enter_factor <= 0:
            raise ValueError("degraded_enter_factor must be positive")


class BoostController:
    """Reads a deficit tracker and decides when to enter/leave the boost.

    Args:
        tracker: the deficit the boost acts on. Whoever owns it feeds it;
            the controller only reads it (and may be pointed at a new
            tracker when the goal changes).
        config: boost knobs.
    """

    def __init__(self, tracker: DeficitTracker, config: GuaranteeConfig | None = None) -> None:
        self.config = config or GuaranteeConfig()
        self.tracker = tracker
        self.boosted = False
        self.boosts_entered = 0
        self.boost_seconds = 0.0
        self._boost_started: float | None = None
        self._degraded = False
        # Structured-trace hook (repro.obs); None = tracing disabled.
        self.emit: Callable[[TraceEvent], None] | None = None

    @property
    def goal_s(self) -> float:
        return self.tracker.goal

    @property
    def deficit(self) -> float:
        return self.tracker.deficit

    def set_degraded(self, degraded: bool) -> None:
        """Tell the controller the array is (no longer) degraded; the
        entry threshold scales by ``degraded_enter_factor`` while set."""
        self._degraded = degraded

    def should_enter_boost(self) -> bool:
        """True when the deficit has built past the entry threshold."""
        if not self.config.enabled or self.boosted:
            return False
        threshold = self.goal_s * self.config.enter_threshold_requests
        if self._degraded:
            threshold *= self.config.degraded_enter_factor
        return self.tracker.deficit > threshold

    def should_exit_boost(self) -> bool:
        """True when enough credit has accumulated to resume saving."""
        if not self.boosted:
            return False
        credit_target = self.goal_s * self.config.exit_credit_requests
        return self.tracker.deficit <= -credit_target

    def enter_boost(self, now: float) -> None:
        if self.boosted:
            raise RuntimeError("already boosted")
        self.boosted = True
        self.boosts_entered += 1
        self._boost_started = now
        if self.emit is not None:
            self.emit(BoostEnter(time=now, deficit_s=self.tracker.deficit))

    def exit_boost(self, now: float) -> None:
        if not self.boosted:
            raise RuntimeError("not boosted")
        if self._boost_started is not None:
            self.boost_seconds += now - self._boost_started
            self._boost_started = None
        self.boosted = False
        if self.emit is not None:
            self.emit(BoostExit(
                time=now,
                deficit_s=self.tracker.deficit,
                boost_seconds_total=self.boost_seconds,
            ))

    def finish(self, now: float) -> None:
        """Close accounting at end of run (boost may still be active).

        Idempotent: the open interval is added once and ``_boost_started``
        is cleared, so a later ``finish`` or ``exit_boost`` at the same
        time adds nothing. ``boosted`` stays True — the run *ended*
        boosted; only the time accounting is closed.
        """
        if self.boosted and self._boost_started is not None:
            self.boost_seconds += now - self._boost_started
            self._boost_started = None

    @property
    def cumulative_average(self) -> float:
        return self.tracker.cumulative_average

    @property
    def meets_goal(self) -> bool:
        """Whether the cumulative average currently satisfies the goal."""
        return not self.tracker.violated
