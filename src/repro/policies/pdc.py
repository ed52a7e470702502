"""PDC: Popular Data Concentration (Pinheiro & Bianchini, ICS'04).

Periodically rank all extents by recent popularity and pack the hottest
onto the first disk, the next-hottest onto the second, and so on; then
let threshold-based spin-down put the cold tail of the array into
standby. PDC has no notion of intermediate speeds and no performance
goal: it trades response time for energy whenever the skew lets it park
disks — and its load *concentration* is exactly what overloads the first
disks under data-center rates, which is the failure mode the paper
contrasts Hibernator's load-spreading tiers against.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass


from repro.core.migration import MigrationExecutor, MigrationPlan
from repro.core.temperature import HeatTracker
from repro.obs.events import PdcPeriod
from repro.policies.base import PowerPolicy
from repro.policies.tpm import IdleSpindownManager, breakeven_seconds
from repro.sim.request import Request

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runner import ArraySimulation


@dataclass
class PdcConfig:
    """PDC knobs.

    Attributes:
        period_s: re-ranking/migration period.
        heat_smoothing: exponential history weight when folding a period.
        spindown_threshold_s: idle timeout for passive disks; None = the
            disk spec's break-even time.
        max_moves_per_period: cap on migrations issued per period (keeps
            the concentration from monopolizing the array).
        max_inflight_migrations: concurrent extent copies.
        fill_fraction: how full to pack each disk, as a fraction of its
            slot capacity (leaving room so moves cannot deadlock).
    """

    period_s: float = 3600.0
    heat_smoothing: float = 0.5
    spindown_threshold_s: float | None = None
    max_moves_per_period: int = 500
    max_inflight_migrations: int = 4
    fill_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < self.fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")


class PdcPolicy(PowerPolicy):
    """Popularity packing onto leading disks + spin-down of the tail."""

    name = "PDC"

    def __init__(self, config: PdcConfig | None = None) -> None:
        super().__init__()
        self.config = config or PdcConfig()
        self.heat: HeatTracker | None = None
        self.executor: MigrationExecutor | None = None
        self._manager: IdleSpindownManager | None = None

    def attach(self, sim: "ArraySimulation") -> None:
        super().attach(sim)
        array = sim.array
        spec = array.config.spec
        array.set_all_speeds(spec.max_rpm)
        self.heat = HeatTracker(array.num_extents, smoothing=self.config.heat_smoothing)
        self.executor = MigrationExecutor(array, self.config.max_inflight_migrations)
        threshold = self.config.spindown_threshold_s
        if threshold is None:
            threshold = breakeven_seconds(spec)
        self._manager = IdleSpindownManager(sim.engine, threshold)
        for disk in array.disks:
            self._manager.manage(disk)
        self.metrics.counter("pdc_periods")  # registered so the key exists even at 0
        sim.engine.schedule(self.config.period_s, self._period_boundary)

    def on_request_arrival(self, request: Request) -> None:
        assert self.heat is not None
        self.heat.record(request.extent, is_write=not request.is_read)

    def _period_boundary(self) -> None:
        sim = self.sim
        assert sim is not None and self.heat is not None and self.executor is not None
        self.heat.close_epoch(self.config.period_s)
        self.metrics.counter("pdc_periods").inc()
        plan = self._plan_concentration()
        if sim.emit is not None:
            sim.emit(PdcPeriod(time=sim.engine.now, planned_moves=plan.num_moves))
        if self.executor.active:
            self.executor.cancel()
        if plan.num_moves:
            self.executor.start(plan)
        if sim.workload_open:
            sim.engine.schedule_after(self.config.period_s, self._period_boundary)

    def _plan_concentration(self) -> MigrationPlan:
        """Desired layout: heat order packed disk 0, disk 1, ..."""
        sim = self.sim
        assert sim is not None and self.heat is not None
        array = sim.array
        emap = array.extent_map
        per_disk = int(emap.slots_per_disk * self.config.fill_fraction)
        per_disk = max(per_disk, -(-array.num_extents // array.num_disks))
        hottest = self.heat.hottest_first()
        moves: list[tuple[int, int]] = []
        for rank, extent in enumerate(hottest):
            if len(moves) >= self.config.max_moves_per_period:
                break
            desired = min(rank // per_disk, array.num_disks - 1)
            if emap.disk_of(int(extent)) != desired:
                moves.append((int(extent), desired))
        return MigrationPlan(moves=moves)

    def describe(self) -> str:
        return f"PDC(period={self.config.period_s:g}s, cap={self.config.max_moves_per_period})"
