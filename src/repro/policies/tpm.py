"""TPM: traditional threshold-based power management.

The classic two-state laptop-disk policy applied to an array: when a
disk has been idle for a fixed threshold, spin it down to standby; the
next request to hit it pays the full spin-up delay. The threshold
defaults to the *break-even time* — the idle duration at which the
energy saved in standby exactly pays for the spin-down + spin-up energy
— which makes the policy 2-competitive in the ski-rental sense.

On data-center workloads idle gaps per disk are almost always shorter
than the break-even (a few tens of seconds here), which is precisely why
the paper finds TPM saves ≈nothing on OLTP and hurts response time
whenever it does fire.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.disks.disk import DiskState, MultiSpeedDisk
from repro.disks.specs import DiskSpec
from repro.policies.base import PowerPolicy
from repro.sim.engine import Engine

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runner import ArraySimulation


def breakeven_seconds(spec: DiskSpec, rpm: int | None = None) -> float:
    """Idle time at which standby starts paying for the round trip.

    Solves ``(idle_watts - standby_watts) * t = spindown_J + spinup_J``
    for ``t`` at the given (default: full) speed.
    """
    if rpm is None:
        rpm = spec.max_rpm
    saving_rate = spec.idle_watts(rpm) - spec.standby_watts
    if saving_rate <= 0:
        raise ValueError(f"standby saves nothing at {rpm} rpm for {spec.name}")
    return (spec.spindown_joules + spec.spinup_joules) / saving_rate


class IdleSpindownManager:
    """Reusable idle-timeout spin-down machinery.

    Arms a timer whenever a managed disk goes idle and spins the disk
    down when it fires. Each disk has an arm count: arming and disk
    activity both bump it, and a timer acts only if its count is still
    current, so activity or a re-arm supersedes every earlier timer.
    TPM uses it for every disk; PDC and MAID reuse it for their passive
    disks.
    """

    def __init__(self, engine: Engine, threshold_s: float) -> None:
        if threshold_s <= 0:
            raise ValueError(f"threshold must be positive, got {threshold_s!r}")
        self.engine = engine
        self.threshold_s = threshold_s
        self._arms: dict[int, int] = {}

    def manage(self, disk: MultiSpeedDisk) -> None:
        """Start managing ``disk`` (hooks its idle/activity callbacks)."""
        self._arms.setdefault(disk.index, 0)
        disk.on_idle = self._arm
        disk.on_activity = self._disk_activity
        if disk.state is DiskState.IDLE and disk.queue_length == 0:
            self._arm(disk)

    def _arm(self, disk: MultiSpeedDisk) -> None:
        count = self._arms[disk.index] + 1
        self._arms[disk.index] = count
        self.engine.schedule_after(self.threshold_s, self._fire, disk, count)

    def _disk_activity(self, disk: MultiSpeedDisk) -> None:
        self._arms[disk.index] += 1

    def _fire(self, disk: MultiSpeedDisk, count: int) -> None:
        if count != self._arms[disk.index]:
            return  # superseded by activity or a later arm
        if disk.state is DiskState.IDLE and disk.queue_length == 0:
            disk.spin_down()


@dataclass
class TpmConfig:
    """TPM knobs.

    Attributes:
        threshold_s: idle time before spin-down; None = the break-even
            time of the array's disk spec.
        threshold_multiple: scales the (default or explicit) threshold;
            sensitivity experiments sweep this.
    """

    threshold_s: float | None = None
    threshold_multiple: float = 1.0


class TpmPolicy(PowerPolicy):
    """Fixed-threshold spin-down on every disk; full speed when on."""

    name = "TPM"

    def __init__(self, config: TpmConfig | None = None) -> None:
        super().__init__()
        self.config = config or TpmConfig()
        self.threshold_s: float | None = None
        self._manager: IdleSpindownManager | None = None

    def attach(self, sim: "ArraySimulation") -> None:
        super().attach(sim)
        spec = sim.array.config.spec
        base = self.config.threshold_s
        if base is None:
            base = breakeven_seconds(spec)
        self.threshold_s = base * self.config.threshold_multiple
        sim.array.set_all_speeds(spec.max_rpm)
        self._manager = IdleSpindownManager(sim.engine, self.threshold_s)
        for disk in sim.array.disks:
            self._manager.manage(disk)

    def describe(self) -> str:
        if self.threshold_s is None:
            return "TPM(threshold=breakeven)"
        return f"TPM(threshold={self.threshold_s:.1f}s)"
