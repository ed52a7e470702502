"""Unit tests for migration planning and execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layout import identity_layout
from repro.core.migration import (
    MigrationExecutor,
    MigrationPlan,
    plan_shuffle_migration,
    plan_sorted_migration,
)
from repro.core.response_model import MG1ResponseModel
from repro.core.speed_setting import SpeedAssignment, SpeedSettingConfig, solve_speed_assignment
from repro.disks.array import ArrayConfig, DiskArray
from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import ultrastar_36z15
from repro.sim.engine import Engine


def build(engine, heat, num_disks=4, num_extents=80, goal=0.02):
    spec = ultrastar_36z15()
    config = ArrayConfig(num_disks=num_disks, spec=spec, num_extents=num_extents,
                         deterministic_latency=True, seed=3)
    array = DiskArray(engine, config)
    model = MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=4096)
    assignment = solve_speed_assignment(
        heat=heat, num_disks=num_disks, model=model, spec=spec,
        epoch_seconds=3600.0, goal_s=goal,
        config=SpeedSettingConfig(change_penalty_joules=0.0),
    )
    return array, identity_layout(assignment)


@pytest.fixture
def skewed_heat():
    heat = np.full(80, 0.05)
    heat[:8] = 10.0
    return heat


def hottest(heat):
    return np.argsort(-heat, kind="stable")


class TestShufflePlan:
    def test_plan_respects_target_tiers(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        target = layout.target_tiers(hottest(skewed_heat))
        for extent, disk in plan.moves:
            assert layout.tier_of_disk(disk) == target[extent]

    def test_correctly_placed_extents_stay(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        target = layout.target_tiers(hottest(skewed_heat))
        moved = {e for e, _ in plan.moves}
        for extent in range(80):
            current_tier = layout.tier_of_disk(array.extent_map.disk_of(extent))
            if current_tier == target[extent]:
                assert extent not in moved

    def test_plan_balances_within_tier(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        projected = array.extent_map.occupancy().astype(int)
        for extent, disk in plan.moves:
            projected[array.extent_map.disk_of(extent)] -= 1
            projected[disk] += 1
        for tier in range(layout.num_tiers):
            disks = layout.disks_in_tier(tier)
            if len(disks) > 1:
                occ = [projected[d] for d in disks]
                assert max(occ) - min(occ) <= 2

    def test_deterministic_given_rng_seed(self, engine, skewed_heat):
        array, layout = build(engine, skewed_heat)
        a = plan_shuffle_migration(array, layout, hottest(skewed_heat),
                                   np.random.default_rng(1))
        engine2 = Engine()
        array2, layout2 = build(engine2, skewed_heat)
        b = plan_shuffle_migration(array2, layout2, hottest(skewed_heat),
                                   np.random.default_rng(1))
        assert a.moves == b.moves


def apply_plan_directly(array, layout, heat, planner, passes=6):
    """Apply a planner's moves straight onto the map until fixpoint."""
    for _ in range(passes):
        plan = planner(array, layout, hottest(heat))
        progressed = False
        for extent, disk in plan.moves:
            if array.extent_map.free_slots(disk) > 0:
                array.extent_map.move(extent, disk)
                progressed = True
        if not progressed:
            break


class TestSortedPlan:
    def test_incremental_change_shuffle_beats_sort(self, engine, skewed_heat, rng):
        """The headline claim of F8: from an *organized* layout, a small
        working-set shift costs shuffling a handful of moves but forces
        the sorted layout to relocate far more (rank insertion shifts
        everything below the change)."""
        heat = np.full(400, 0.05)
        heat[:40] = 10.0
        spec = ultrastar_36z15()
        config = ArrayConfig(num_disks=8, spec=spec, num_extents=400,
                             deterministic_latency=True, seed=3)
        array = DiskArray(engine, config)
        # Fixed two-tier layout: 2 fast disks, 6 slow ones.
        assignment = SpeedAssignment(
            speeds_desc=tuple(sorted(spec.rpm_levels, reverse=True)),
            boundaries=(0, 2, 2, 2, 2, 8),
            extent_boundaries=(0, 100, 100, 100, 100, 400),
            predictions=[],
            predicted_energy_joules=0.0,
            predicted_response_s=0.0,
            feasible=True,
        )
        layout = identity_layout(assignment)
        apply_plan_directly(array, layout, heat,
                            lambda a, l, h: plan_sorted_migration(a, l, h))
        # Perturb: 16 cold extents heat up, 16 hot ones cool down.
        drifted = heat.copy()
        drifted[:16] = 0.05
        drifted[200:216] = 10.0
        shuffle = plan_shuffle_migration(array, layout, hottest(drifted), rng)
        full_sort = plan_sorted_migration(array, layout, hottest(drifted))
        assert shuffle.num_moves > 0
        assert full_sort.num_moves > 2 * shuffle.num_moves

    def test_sorted_plan_fixpoint_is_empty(self, engine, skewed_heat):
        array, layout = build(engine, skewed_heat)
        apply_plan_directly(array, layout, skewed_heat,
                            lambda a, l, h: plan_sorted_migration(a, l, h))
        replan = plan_sorted_migration(array, layout, hottest(skewed_heat))
        assert replan.num_moves == 0

    def test_shuffle_plan_fixpoint_is_empty(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        apply_plan_directly(array, layout, skewed_heat,
                            lambda a, l, h: plan_shuffle_migration(a, l, h, rng))
        replan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        assert replan.num_moves == 0


class TestMigrationPlan:
    def test_bytes_to_move(self):
        plan = MigrationPlan(moves=[(0, 1), (2, 3)])
        assert plan.num_moves == 2
        assert plan.bytes_to_move(1 << 20) == 2 << 20


class TestExecutor:
    def test_executes_whole_plan(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        done = []
        executor = MigrationExecutor(array, max_inflight=2)
        executor.start(plan, done.append)
        engine.run()
        assert done == [executor]
        assert executor.completed == plan.num_moves
        assert array.migration_extents_moved == plan.num_moves
        array.extent_map.check_invariants()
        # Post-state honours the plan.
        target = layout.target_tiers(hottest(skewed_heat))
        for extent, _ in plan.moves:
            assert layout.tier_of_disk(array.extent_map.disk_of(extent)) == target[extent]

    def test_bounded_concurrency(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        assert plan.num_moves >= 3
        executor = MigrationExecutor(array, max_inflight=1)
        executor.start(plan)
        # With inflight=1, at most 2 disks can have queued migration work
        # at any instant (source + target of the single move).
        busy = sum(1 for d in array.disks if d.busy or d.queue_length)
        assert busy <= 2
        engine.run()
        assert executor.completed == plan.num_moves

    def test_cancel_stops_new_moves(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        executor = MigrationExecutor(array, max_inflight=1)
        executor.start(plan)
        executor.cancel()
        engine.run()
        assert executor.completed <= 1
        assert executor.unplaced >= plan.num_moves - 1
        array.extent_map.check_invariants()

    def test_start_while_active_raises(self, engine, skewed_heat, rng):
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        executor = MigrationExecutor(array)
        executor.start(plan)
        with pytest.raises(RuntimeError):
            executor.start(plan)

    def test_restart_with_copies_in_flight(self, engine, skewed_heat, rng):
        """An epoch boundary cancels the running plan and starts the next
        one while copies of the first are still in flight: the new plan
        starts, the old copies finish, and the in-flight bound holds
        across both plans."""
        array, layout = build(engine, skewed_heat)
        plan = plan_shuffle_migration(array, layout, hottest(skewed_heat), rng)
        assert plan.num_moves >= 6
        old, new = MigrationPlan(plan.moves[:4]), MigrationPlan(plan.moves[4:])
        inflight, peak = [0], [0]
        issue = array.migrate_extent

        def counted(extent, target, on_complete):
            def done(moved):
                inflight[0] -= 1
                on_complete(moved)

            issued = issue(extent, target, done)
            if issued:
                inflight[0] += 1
                peak[0] = max(peak[0], inflight[0])
            return issued

        array.migrate_extent = counted
        executor = MigrationExecutor(array, max_inflight=2)
        executor.start(old)
        assert inflight[0] == 2
        executor.cancel()
        executor.start(new)  # must not raise
        assert inflight[0] == 2
        engine.run()
        assert peak[0] == 2 and inflight[0] == 0
        assert not executor.active
        # The two old copies landed and were counted once each; the two
        # cancelled moves never ran.
        assert array.migration_extents_moved == 2 + new.num_moves
        assert executor.completed == 2 + new.num_moves
        for extent, target in old.moves[:2] + new.moves:
            assert array.extent_map.disk_of(extent) == target
        for extent, target in old.moves[2:]:
            assert array.extent_map.disk_of(extent) != target
        array.extent_map.check_invariants()

    def test_empty_plan_completes_immediately(self, engine, skewed_heat):
        array, layout = build(engine, skewed_heat)
        done = []
        executor = MigrationExecutor(array)
        executor.start(MigrationPlan(), done.append)
        assert done and not executor.active

    def test_blocked_moves_reported_unplaced(self, engine):
        config = ArrayConfig(num_disks=2, num_extents=4, slack_fraction=0.0,
                             deterministic_latency=True, seed=1)
        array = DiskArray(engine, config)
        # Disk 1 has exactly one free slot; ask for two moves into it.
        executor = MigrationExecutor(array, max_inflight=2)
        executor.start(MigrationPlan(moves=[(0, 1), (2, 1)]))
        engine.run()
        assert executor.completed == 1
        assert executor.unplaced == 1
        array.extent_map.check_invariants()

    def test_max_inflight_validation(self, engine, small_config):
        array = DiskArray(engine, small_config)
        with pytest.raises(ValueError):
            MigrationExecutor(array, max_inflight=0)
