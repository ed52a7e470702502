"""The Hibernator epoch controller.

Glues the four techniques from the abstract into one
:class:`repro.policies.base.PowerPolicy`:

1. multi-speed disks (the substrate in :mod:`repro.disks`),
2. coarse-grained speed setting — at every epoch boundary, fold the
   observed per-extent heat and run the CR optimizer
   (:mod:`repro.core.speed_setting`) to pick the next epoch's tier
   configuration,
3. data migration — plan moves with randomized shuffling (or the sorted
   strawman, for F8) and trickle them through a bounded-concurrency
   executor so migration never swamps foreground traffic,
4. the performance guarantee — every completed request checks the boost
   controller against the run's deficit (which the simulation feeds with
   each served request's latency); the moment the cumulative average
   response time would exceed the goal, all disks go to full speed and
   migration yields.

The first epoch is an *observation epoch*: with no heat history the
array runs at full speed while the tracker learns the workload (the
paper warms up the same way). Benchmarks that want steady state
immediately can prime the tracker from an offline trace scan via
``HibernatorConfig.prime_rates``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from repro.core.guarantee import BoostController, GuaranteeConfig
from repro.core.layout import TierLayout, identity_layout
from repro.core.migration import (
    MigrationExecutor,
    MigrationPlan,
    plan_shuffle_migration,
    plan_sorted_migration,
)
from repro.core.response_model import MG1ResponseModel
from repro.core.speed_setting import (
    SpeedAssignment,
    SpeedSettingConfig,
    solve_speed_assignment,
    solve_utilization_assignment,
)
from repro.core.temperature import HeatTracker
from repro.obs.events import EpochBoundary
from repro.policies.base import PowerPolicy
from repro.sim.engine import SimulationError
from repro.sim.request import Request

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runner import ArraySimulation


@dataclass
class EpochRecord:
    """What happened at one epoch boundary (for reports and tests)."""

    time: float
    configuration: str
    predicted_response_s: float
    predicted_energy_joules: float
    feasible: bool
    planned_moves: int
    boosted_at_boundary: bool


@dataclass
class HibernatorConfig:
    """Hibernator knobs.

    Attributes:
        epoch_seconds: length of the coarse-grained control period.
        heat_smoothing: exponential weight of history in the heat fold.
        migration: 'shuffle' (the paper's randomized shuffling),
            'sorted' (full temperature-sort strawman) or 'none'.
        max_inflight_migrations: concurrent extent copies allowed.
        speed_setting: CR optimizer knobs.
        guarantee: boost controller knobs (ignored when the run has no
            goal).
        prime_rates: optional per-extent request rates to seed the heat
            tracker, skipping the observation epoch.
        wave_fraction: fraction of the array whose spindles may be in
            transition at once. Speed changes are *staggered* in waves —
            a transitioning spindle serves nothing, so changing every
            disk simultaneously would black out the whole array for
            seconds and self-inflict exactly the latency spike the boost
            exists to fix.
        wave_poll_interval_s: how often a wave checks whether its disks
            have reached their targets before releasing the next wave.
        speed_setter: 'cr' (the paper's response-time-constrained
            optimizer) or 'utilization' (the naive target-utilization
            strawman; A3 ablation).
        util_target: utilization ceiling for the 'utilization' setter.
        adaptive_epochs: grow the epoch (up to ``max_epoch_multiple`` x
            the base length) while consecutive boundaries leave the
            configuration unchanged and no boost fired; reset to the
            base length otherwise. Extension beyond the paper: buys long-
            epoch efficiency on stable workloads without giving up
            responsiveness after a change.
        max_epoch_multiple: cap for the adaptive epoch growth.
        seed: randomness for shuffle tie-breaking.
    """

    epoch_seconds: float = 3600.0
    heat_smoothing: float = 0.5
    migration: str = "shuffle"
    max_inflight_migrations: int = 4
    speed_setting: SpeedSettingConfig = field(default_factory=SpeedSettingConfig)
    guarantee: GuaranteeConfig = field(default_factory=GuaranteeConfig)
    prime_rates: np.ndarray | None = None
    wave_fraction: float = 0.25
    wave_poll_interval_s: float = 0.25
    speed_setter: str = "cr"
    util_target: float = 0.6
    adaptive_epochs: bool = False
    max_epoch_multiple: float = 8.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.migration not in ("shuffle", "sorted", "none"):
            raise ValueError(f"unknown migration scheme {self.migration!r}")
        if not 0.0 < self.wave_fraction <= 1.0:
            raise ValueError("wave_fraction must be in (0, 1]")
        if self.wave_poll_interval_s <= 0:
            raise ValueError("wave_poll_interval_s must be positive")
        if self.speed_setter not in ("cr", "utilization"):
            raise ValueError(f"unknown speed setter {self.speed_setter!r}")
        if not 0.0 < self.util_target < 1.0:
            raise ValueError("util_target must be in (0, 1)")
        if self.max_epoch_multiple < 1.0:
            raise ValueError("max_epoch_multiple must be >= 1")


class HibernatorPolicy(PowerPolicy):
    """Energy management with a response-time goal (the paper's system)."""

    name = "Hibernator"

    def __init__(self, config: HibernatorConfig | None = None) -> None:
        super().__init__()
        self.config = config or HibernatorConfig()
        # Per-run state, initialized in attach().
        self.heat: HeatTracker | None = None
        self.boost: BoostController | None = None
        self.executor: MigrationExecutor | None = None
        self.assignment: SpeedAssignment | None = None
        self.layout: TierLayout | None = None
        self.epochs: list[EpochRecord] = []
        # Count and Welford running mean of request sizes; the CR model
        # needs only the mean.
        self._size_n = 0
        self._size_mean = 0.0
        self._rng = np.random.default_rng(self.config.seed)
        self._model: MG1ResponseModel | None = None
        self._speed_change_gen = 0
        self._current_epoch_s = self.config.epoch_seconds
        self._reads_seen = 0
        self._writes_seen = 0
        self._rebuilding = False
        self._assignment_width = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, sim: "ArraySimulation") -> None:
        super().attach(sim)
        array = sim.array
        cfg = self.config
        # On RAID-5 a logical write costs four physical ops
        # (read-modify-write on data + parity), so the load the CR
        # optimizer plans against must weight writes accordingly or it
        # will under-provision and live off the boost.
        self.heat = HeatTracker(
            num_extents=array.num_extents,
            smoothing=cfg.heat_smoothing,
            write_weight=4.0 if array.config.raid5 else 1.0,
        )
        # The boost reads the run's own deficit tracker: one tracker, fed
        # once per served request by the simulation.
        self.boost = BoostController(sim.deficit, cfg.guarantee) if sim.deficit is not None else None
        if self.boost is not None:
            self.boost.emit = sim.emit
        self.executor = MigrationExecutor(array, cfg.max_inflight_migrations)
        # Register every instrument up front so the extras key set is
        # stable (present even when the count stays zero), matching the
        # pre-registry dict exactly.
        self.metrics.counter("epochs")
        self.metrics.gauge("final_epoch_s").set(cfg.epoch_seconds)
        self.metrics.counter("infeasible_epochs")
        self.metrics.counter("planned_moves")
        if self.boost is not None:
            self.metrics.counter("boosts")
            self.metrics.gauge("boost_seconds")
            self.metrics.gauge("final_deficit_s")
        self.assignment = None
        self.layout = None
        self.epochs = []
        self._size_n = 0
        self._size_mean = 0.0
        self._rng = np.random.default_rng(cfg.seed)
        self._model = None
        self._speed_change_gen = 0
        self._current_epoch_s = cfg.epoch_seconds
        self._reads_seen = 0
        self._writes_seen = 0
        self._rebuilding = False
        self._assignment_width = array.num_disks
        if cfg.prime_rates is not None:
            # Steady-state start: the array was already running Hibernator
            # before this window, so the primed configuration (speeds and
            # layout) is applied instantaneously before any I/O arrives.
            self.heat.prime(np.asarray(cfg.prime_rates, dtype=np.float64))
            self._reconfigure(instant=True)
        else:
            array.set_all_speeds(array.config.spec.max_rpm)
        sim.engine.schedule(self._current_epoch_s, self._epoch_boundary)

    # -- request hooks ----------------------------------------------------------

    def on_request_arrival(self, request: Request) -> None:
        assert self.heat is not None
        self.heat.record(request.extent, is_write=not request.is_read)
        # Welford's mean update, exactly as OnlineStats.add orders it.
        self._size_n += 1
        self._size_mean += (request.size - self._size_mean) / self._size_n
        if request.is_read:
            self._reads_seen += 1
        else:
            self._writes_seen += 1

    def on_request_complete(self, request: Request) -> None:
        # The simulation has already folded a served request's latency
        # into the deficit the boost reads; a failed request adds nothing.
        boost = self.boost
        if boost is None or not boost.should_enter_boost():
            return
        sim = self.sim
        assert sim is not None and self.executor is not None
        boost.enter_boost(sim.engine.now)
        self.metrics.counter("boosts").inc()
        self._boost_speeds()
        self.executor.cancel()
        # Exit is evaluated only at epoch boundaries: leaving mid-epoch
        # would reinstate speeds chosen for the stale heat that caused
        # the violation in the first place.

    def on_disk_failed(self, disk: int, rebuild_active: bool = False) -> None:
        """React to a failure mid-epoch: the epoch's configuration was
        chosen for an array that no longer exists.

        Migration is cancelled (its plan names a dead disk's layout), the
        boost gets more eager while the data is exposed, and the speed
        assignment is re-solved over the surviving set immediately — the
        RT guarantee is re-evaluated now, not at the next boundary.
        """
        sim = self.sim
        assert sim is not None and self.executor is not None
        self._rebuilding = rebuild_active
        if self.boost is not None:
            self.boost.set_degraded(True)
        self.executor.cancel()
        self.metrics.counter("disk_failures").inc()
        self._reconfigure(instant=False, record=False)

    def on_rebuild_complete(self) -> None:
        """Exposure window over: relax the guarantee and re-solve so the
        survivors can leave the full-speed pin."""
        self._rebuilding = False
        if self.boost is not None:
            self.boost.set_degraded(False)
        self._reconfigure(instant=False, record=False)

    # -- online control hooks (repro serve) ----------------------------------

    def on_goal_changed(self, goal_s: float | None) -> None:
        """Rebuild the guarantee machinery around the new goal.

        Tightening or loosening the goal restarts the deficit from zero
        (overshoots against the old goal are not debts against the new
        one): the simulation has already replaced its tracker, and the
        boost is pointed at the new one. Clearing the goal retires the
        boost controller after closing its time accounting. An active
        boost is left boosted — the next epoch boundary re-evaluates exit
        against the new goal, exactly as it would after any other
        deficit reset.
        """
        sim = self.sim
        assert sim is not None
        now = sim.engine.now
        if goal_s is None:
            if self.boost is not None:
                self.boost.finish(now)
                self.metrics.gauge("boost_seconds").set(self.boost.boost_seconds)
                self.boost = None
            return
        assert sim.deficit is not None and sim.deficit.goal == goal_s
        if self.boost is None:
            self.boost = BoostController(sim.deficit, self.config.guarantee)
            self.boost.emit = sim.emit
            self.boost.set_degraded(self._rebuilding)
            self.metrics.counter("boosts")
            self.metrics.gauge("boost_seconds")
            self.metrics.gauge("final_deficit_s")
        else:
            self.boost.tracker = sim.deficit

    def force_boost(self, now: float) -> bool:
        """Operator-forced boost: same entry path the deficit takes."""
        if self.sim is not None and self.sim.engine.dispatching:
            raise SimulationError.mid_dispatch("force_boost")
        if self.boost is None or self.boost.boosted:
            return False
        self.boost.enter_boost(now)
        self.metrics.counter("boosts").inc()
        self._boost_speeds()
        if self.executor is not None:
            self.executor.cancel()
        return True

    def current_assignment(self) -> str | None:
        if self.assignment is None:
            return None
        return self.assignment.describe()

    def on_finish(self, now: float) -> None:
        if self.boost is not None:
            self.boost.finish(now)
        self.metrics.gauge("final_epoch_s").set(self._current_epoch_s)
        if self.boost is not None:
            self.metrics.gauge("boost_seconds").set(self.boost.boost_seconds)
            self.metrics.gauge("final_deficit_s").set(self.boost.deficit)

    # -- epoch machinery -----------------------------------------------------------

    def _epoch_boundary(self) -> None:
        sim = self.sim
        assert sim is not None and self.heat is not None
        self.heat.close_epoch(self._current_epoch_s)
        boosts_before = self.boost.boosts_entered if self.boost is not None else 0
        if self.boost is not None and self.boost.should_exit_boost():
            self.boost.exit_boost(sim.engine.now)
        previous = self.assignment.boundaries if self.assignment is not None else None
        self._reconfigure(instant=False)
        if self.config.adaptive_epochs:
            self._adapt_epoch_length(previous, boosts_before)
        if sim.workload_open:
            sim.engine.schedule_after(self._current_epoch_s, self._epoch_boundary)

    def _adapt_epoch_length(self, previous_boundaries, boosts_before: int) -> None:
        """Grow the epoch while nothing changes; reset when it does."""
        base = self.config.epoch_seconds
        boosted_since = (
            self.boost is not None and self.boost.boosts_entered > boosts_before
        ) or (self.boost is not None and self.boost.boosted)
        unchanged = (
            previous_boundaries is not None
            and self.assignment is not None
            and self.assignment.boundaries == previous_boundaries
        )
        if unchanged and not boosted_since:
            self._current_epoch_s = min(
                self._current_epoch_s * 2.0, base * self.config.max_epoch_multiple
            )
        else:
            self._current_epoch_s = base

    def _reconfigure(self, instant: bool, record: bool = True) -> None:
        """Re-solve the speed assignment and (re)plan migration.

        ``record=False`` is the mid-epoch path (failure / rebuild
        completion): the configuration changes but no epoch starts, so
        the epoch counter, records and boundary event are skipped.

        With failed disks, the solve runs over the *surviving* set:
        position ``p`` of the assignment maps to the p-th surviving disk
        (ascending index). The tier layout (and therefore migration
        planning) is suspended — extent placement is the rebuilder's
        business until the exposure is gone — and while a rebuild is in
        flight the survivors are pinned at full speed.
        """
        sim = self.sim
        assert sim is not None and self.heat is not None and self.executor is not None
        array = sim.array
        spec = array.config.spec
        survivors = [
            d for d in range(array.num_disks) if d not in array.failed_disks
        ]
        if not survivors:
            return  # the whole array is gone; nothing to control
        degraded = len(survivors) < array.num_disks
        mean_size = self._size_mean if self._size_n else 4096.0
        self._model = MG1ResponseModel(
            mechanics=array.disks[0].mechanics,
            mean_request_bytes=mean_size,
        )
        # Stale boundaries from a different array width would misalign
        # the solver's warm start; only reuse them at the same width.
        prev = None
        if self.assignment is not None and self._assignment_width == len(survivors):
            prev = self.assignment.boundaries
        planning_goal = self._planning_goal()
        if self.config.speed_setter == "utilization":
            assignment = solve_utilization_assignment(
                heat=self.heat.heat,
                num_disks=len(survivors),
                model=self._model,
                spec=spec,
                epoch_seconds=self._current_epoch_s,
                util_target=self.config.util_target,
            )
        else:
            assignment = solve_speed_assignment(
                heat=self.heat.heat,
                num_disks=len(survivors),
                model=self._model,
                spec=spec,
                epoch_seconds=self._current_epoch_s,
                goal_s=planning_goal,
                prev_boundaries=prev,
                config=self.config.speed_setting,
            )
        self.assignment = assignment
        self._assignment_width = len(survivors)
        boosted = self.boost is not None and self.boost.boosted
        if not degraded:
            self.layout = identity_layout(assignment)
            if instant:
                for disk in array.disks:
                    disk.force_speed(self.layout.rpm_of_disk(disk.index))
            elif not boosted:
                self._apply_speeds()
        else:
            self.layout = None
            if not boosted:
                self._apply_survivor_speeds(survivors, assignment)
        plan = self._plan_migration() if self.layout is not None else None
        if self.executor.active:
            self.executor.cancel()
        planned = plan.num_moves if plan is not None else 0
        if plan is not None and plan.num_moves:
            if instant:
                # Steady-state start: the layout is already in place.
                for extent, target in plan.moves:
                    if array.extent_map.free_slots(target) > 0:
                        array.extent_map.move(extent, target)
            elif not boosted:
                self.executor.start(plan)
        if not record:
            return
        self.epochs.append(
            EpochRecord(
                time=sim.engine.now,
                configuration=assignment.describe(),
                predicted_response_s=assignment.predicted_response_s,
                predicted_energy_joules=assignment.predicted_energy_joules,
                feasible=assignment.feasible,
                planned_moves=planned,
                boosted_at_boundary=boosted,
            )
        )
        self.metrics.counter("epochs").inc()
        if not assignment.feasible:
            self.metrics.counter("infeasible_epochs").inc()
        self.metrics.counter("planned_moves").inc(float(planned))
        if sim.emit is not None:
            sim.emit(EpochBoundary(
                time=sim.engine.now,
                epoch_index=len(self.epochs) - 1,
                configuration=assignment.describe(),
                tier_speeds=tuple(int(s) for s in assignment.speeds_desc),
                tier_counts=tuple(int(c) for c in assignment.counts),
                heat_total=float(self.heat.heat.sum()),
                predicted_response_s=assignment.predicted_response_s,
                predicted_energy_joules=assignment.predicted_energy_joules,
                feasible=assignment.feasible,
                planned_moves=planned,
                boosted=boosted,
                epoch_seconds=self._current_epoch_s,
            ))

    def _apply_survivor_speeds(self, survivors: list[int], assignment: SpeedAssignment) -> None:
        """Apply a survivor-width assignment to the surviving disks.

        While a rebuild is in flight every survivor is pinned at full
        speed instead — reconstruction fan-out plus rebuild traffic is
        the worst load the array sees, and a slow tier would stretch the
        exposure window.
        """
        sim = self.sim
        assert sim is not None
        if self._rebuilding:
            max_rpm = sim.array.config.spec.max_rpm
            self._staggered_speed_change({disk: max_rpm for disk in survivors})
            return
        self._staggered_speed_change({
            disk: assignment.rpm_for_position(position)
            for position, disk in enumerate(survivors)
        })

    def _planning_goal(self) -> float | None:
        """The goal the CR optimizer should plan disk responses against.

        With an NVRAM write-back cache, writes complete at controller
        latency and contribute essentially nothing to the measured mean,
        so the whole latency budget belongs to the reads:

            r * R_reads + (1 - r) * t_cache <= goal
            =>  R_reads <= (goal - (1 - r) * t_cache) / r
        """
        sim = self.sim
        assert sim is not None
        goal = sim.goal_s
        if goal is None or not sim.array.config.write_cache:
            return goal
        total = self._reads_seen + self._writes_seen
        read_fraction = self._reads_seen / total if total else 0.5
        if read_fraction < 0.01:
            return goal * 50.0  # essentially no read latency to bound
        cache_latency = sim.array.config.write_cache_latency_s
        adjusted = (goal - (1.0 - read_fraction) * cache_latency) / read_fraction
        return max(adjusted, goal)

    def _plan_migration(self) -> MigrationPlan | None:
        sim = self.sim
        assert sim is not None and self.heat is not None and self.layout is not None
        if self.config.migration == "none":
            return None
        hottest = self.heat.hottest_first()
        if self.config.migration == "shuffle":
            return plan_shuffle_migration(sim.array, self.layout, hottest, self._rng)
        return plan_sorted_migration(sim.array, self.layout, hottest)

    def _apply_speeds(self) -> None:
        """Roll the layout's speeds through the array in waves."""
        sim = self.sim
        assert sim is not None
        if self.layout is None:
            self._staggered_speed_change(
                {d.index: sim.array.config.spec.max_rpm for d in sim.array.disks}
            )
            return
        self._staggered_speed_change(
            {d.index: self.layout.rpm_of_disk(d.index) for d in sim.array.disks}
        )

    def _boost_speeds(self) -> None:
        """Boost entry: roll every disk up to full speed."""
        sim = self.sim
        assert sim is not None
        self._staggered_speed_change(
            {d.index: sim.array.config.spec.max_rpm for d in sim.array.disks}
        )

    def _staggered_speed_change(self, targets: dict[int, int]) -> None:
        """Issue speed changes in waves of ``wave_fraction`` of the array.

        A new call supersedes any staggering still in flight (the
        generation counter invalidates stale waves). Disks that need to
        speed *up* go in the earliest waves — under pressure, capacity
        arrives sooner.
        """
        sim = self.sim
        assert sim is not None
        array = sim.array
        self._speed_change_gen += 1
        gen = self._speed_change_gen
        pending = [
            (disk, rpm)
            for disk, rpm in targets.items()
            if array.disks[disk].requested_rpm != rpm or array.disks[disk].rpm != rpm
        ]
        if not pending:
            return
        # Upward changes first, largest jump first.
        pending.sort(key=lambda t: array.disks[t[0]].rpm - t[1])
        wave_size = max(1, int(round(self.config.wave_fraction * array.num_disks)))
        self._run_wave(gen, pending, 0, wave_size)

    def _run_wave(self, gen: int, pending: list[tuple[int, int]], start: int, wave_size: int) -> None:
        sim = self.sim
        assert sim is not None
        if gen != self._speed_change_gen or start >= len(pending):
            return
        wave = pending[start : start + wave_size]
        for disk, rpm in wave:
            sim.array.disks[disk].set_speed(rpm)

        def poll() -> None:
            if gen != self._speed_change_gen:
                return
            settled = all(
                sim.array.disks[disk].rpm == rpm and sim.array.disks[disk].is_spinning
                for disk, rpm in wave
            )
            if settled:
                self._run_wave(gen, pending, start + wave_size, wave_size)
            else:
                sim.engine.schedule_after(self.config.wave_poll_interval_s, poll)

        sim.engine.schedule_after(self.config.wave_poll_interval_s, poll)

    # -- reporting ----------------------------------------------------------------

    def describe(self) -> str:
        cfg = self.config
        return (
            f"Hibernator(epoch={cfg.epoch_seconds:g}s, migration={cfg.migration}, "
            f"guarantee={'on' if cfg.guarantee.enabled else 'off'})"
        )

    def extras(self) -> dict[str, float]:
        # The registry (filled incrementally during the run, gauges
        # finalized in on_finish) carries exactly the keys the old
        # hand-built dict did; refresh the gauges here so extras() is
        # also accurate when called mid-run by tests. counter() is
        # get-or-create, so the keys exist even before the first epoch.
        self.metrics.counter("epochs")
        self.metrics.counter("infeasible_epochs")
        self.metrics.counter("planned_moves")
        self.metrics.gauge("final_epoch_s").set(self._current_epoch_s)
        if self.boost is not None:
            self.metrics.gauge("boost_seconds").set(self.boost.boost_seconds)
            self.metrics.gauge("final_deficit_s").set(self.boost.deficit)
        return self.metrics.as_dict()
