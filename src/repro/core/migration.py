"""Migration planning and execution.

Two planners, compared head-to-head by experiment F8:

* :func:`plan_shuffle_migration` — the paper's **randomized shuffling**:
  move *only* extents whose target tier differs from the tier of the
  disk they currently sit on, choosing the least-loaded disk of the
  target tier for each move. Extents already in the right tier never
  move; within-tier placement stays scattered, keeping tier load
  balanced without sorting.
* :func:`plan_sorted_migration` — the naive alternative: lay all extents
  out in strict temperature order (hottest extent at the outermost slot
  of the fastest disk, and so on). Near-perfect ordering, but nearly
  every boundary shift relocates a large fraction of all data.

Execution is asynchronous and bounded: :class:`MigrationExecutor` keeps
at most ``max_inflight`` extent copies in flight so migration trickles
through the array instead of flooding the queues — migration I/O shares
the disks with foreground traffic and is charged to the energy bill.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.layout import TierLayout
from repro.disks.array import DiskArray
from repro.obs.events import MigrationCancelled, MigrationPlanned


@dataclass
class MigrationPlan:
    """An ordered list of extent moves."""

    moves: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_moves(self) -> int:
        return len(self.moves)

    def bytes_to_move(self, extent_bytes: int) -> int:
        return self.num_moves * extent_bytes


def plan_shuffle_migration(
    array: DiskArray,
    layout: TierLayout,
    hottest_first: np.ndarray,
    rng: np.random.Generator | None = None,
) -> MigrationPlan:
    """Randomized shuffling: minimal moves to honour the tier layout.

    Only extents stranded on a wrong-tier disk move. Each move targets
    the disk of the correct tier with the lowest *projected* occupancy
    (current residents plus planned arrivals minus planned departures),
    which keeps tier load balanced without any global sort. Ties are
    broken randomly when ``rng`` is given, else by disk id — both keep
    the plan deterministic for a fixed seed.
    """
    target_tier = layout.target_tiers(hottest_first)
    emap = array.extent_map
    projected = emap.occupancy().astype(np.int64)
    tier_disks = [layout.disks_in_tier(t) for t in range(layout.num_tiers)]
    moves: list[tuple[int, int]] = []
    # Hottest extents first so the fast tier fills with the right data
    # even if capacity runs short mid-plan.
    for extent in hottest_first:
        extent = int(extent)
        tier = int(target_tier[extent])
        current_disk = emap.disk_of(extent)
        if layout.tier_of_disk(current_disk) == tier:
            continue
        candidates = tier_disks[tier]
        if not candidates:
            continue
        best_occupancy = min(projected[d] for d in candidates)
        best = [d for d in candidates if projected[d] == best_occupancy]
        if rng is not None and len(best) > 1:
            target = int(best[rng.integers(len(best))])
        else:
            target = best[0]
        moves.append((extent, target))
        projected[target] += 1
        projected[current_disk] -= 1
    return MigrationPlan(moves=moves)


def plan_sorted_migration(
    array: DiskArray,
    layout: TierLayout,
    hottest_first: np.ndarray,
) -> MigrationPlan:
    """Full temperature-sorted re-layout (the expensive strawman).

    Packs extents in strict heat order across disks in position order,
    each disk receiving its proportional share. Every extent not already
    on its sorted-order disk moves.
    """
    num_extents = len(hottest_first)
    num_disks = len(layout.disk_order)
    emap = array.extent_map
    share = num_extents / num_disks
    moves: list[tuple[int, int]] = []
    for rank, extent in enumerate(hottest_first):
        extent = int(extent)
        position = min(int(rank / share), num_disks - 1)
        desired_disk = layout.disk_order[position]
        if emap.disk_of(extent) != desired_disk:
            moves.append((extent, desired_disk))
    return MigrationPlan(moves=moves)


class MigrationExecutor:
    """Executes a :class:`MigrationPlan` with bounded concurrency.

    Moves are issued in plan order, at most ``max_inflight`` at a time.
    A move whose target disk has no free slot is deferred and retried
    after the next completion frees one; if nothing is in flight and all
    remaining moves are blocked, the executor gives up and reports them
    as unplaced (they will be re-planned next epoch).
    """

    def __init__(self, array: DiskArray, max_inflight: int = 4) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.array = array
        self.max_inflight = max_inflight
        self._pending: deque[tuple[int, int]] = deque()
        self._deferred: list[tuple[int, int]] = []
        self._inflight = 0
        self._cancelled = False
        self._on_done: Callable[["MigrationExecutor"], None] | None = None
        self.completed = 0
        self.unplaced = 0

    @property
    def active(self) -> bool:
        return self._inflight > 0 or bool(self._pending) or bool(self._deferred)

    def start(
        self,
        plan: MigrationPlan,
        on_done: Callable[["MigrationExecutor"], None] | None = None,
    ) -> None:
        """Begin executing ``plan``; ``on_done`` fires when it drains.

        Only a plan with moves still to issue blocks a new one. Copies in
        flight from a cancelled plan finish normally and keep counting
        against ``max_inflight``.
        """
        if self._pending or self._deferred:
            raise RuntimeError("executor already running a plan")
        self._pending = deque(plan.moves)
        self._deferred = []
        self._cancelled = False
        self._on_done = on_done
        self.completed = 0
        self.unplaced = 0
        if self.array.emit is not None:
            self.array.emit(MigrationPlanned(
                time=self.array.engine.now, moves=plan.num_moves,
            ))
        self._pump()

    def cancel(self) -> None:
        """Stop issuing new moves (in-flight copies finish normally).

        Used when the performance boost kicks in: migration yields the
        disks to foreground traffic immediately.
        """
        self._cancelled = True
        dropped = len(self._pending) + len(self._deferred)
        self.unplaced += dropped
        self._pending.clear()
        self._deferred.clear()
        if dropped and self.array.emit is not None:
            self.array.emit(MigrationCancelled(
                time=self.array.engine.now, unplaced=dropped,
            ))

    def _pump(self) -> None:
        while not self._cancelled and self._inflight < self.max_inflight and self._pending:
            extent, target = self._pending.popleft()
            issued = self.array.migrate_extent(extent, target, self._move_done)
            if issued:
                self._inflight += 1
            elif self.array.extent_map.disk_of(extent) == target:
                pass  # already there; nothing to do
            else:
                self._deferred.append((extent, target))
        if self._inflight == 0:
            if self._pending or self._deferred:
                # Everything left is blocked on slots with no completions
                # coming to free any: give up for this epoch.
                dropped = len(self._pending) + len(self._deferred)
                self.unplaced += dropped
                self._pending.clear()
                self._deferred.clear()
                if self.array.emit is not None:
                    self.array.emit(MigrationCancelled(
                        time=self.array.engine.now, unplaced=dropped,
                    ))
            if self._on_done is not None:
                callback, self._on_done = self._on_done, None
                callback(self)

    def _move_done(self, _extent: int) -> None:
        self._inflight -= 1
        self.completed += 1
        if self._deferred and not self._cancelled:
            # A completed move freed a slot somewhere; give blocked moves
            # another chance.
            self._pending.extend(self._deferred)
            self._deferred.clear()
        self._pump()
