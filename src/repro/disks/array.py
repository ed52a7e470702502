"""The disk array: logical volume over N multi-speed disks.

The array owns the disks, the extent placement map and the fan-out of
logical requests into physical ops (optionally through the RAID-5
layer). It is policy-agnostic: power-management policies manipulate it
through :meth:`set_speed`/:meth:`set_all_speeds`, the placement map and
:meth:`migrate_extent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.disks.disk import MultiSpeedDisk
from repro.disks.mapping import ExtentMap
from repro.disks.power import PowerBreakdown
from repro.disks.raid import expand_request, expand_request_degraded
from repro.disks.specs import DiskSpec, ultrastar_36z15
from repro.obs.events import MigrationCancelled, MigrationMove, TraceEvent
from repro.sim.engine import Engine
from repro.sim.request import DiskOp, IoKind, Request, RequestClass

RequestCallback = Callable[[Request], None]


@dataclass
class ArrayConfig:
    """Shape and behaviour of the simulated array.

    Attributes:
        num_disks: array width.
        spec: per-disk hardware parameters.
        num_extents: logical extents exposed by the volume.
        extent_bytes: size of one extent (heat/migration granularity).
        slack_fraction: extra slot capacity per disk beyond the even
            share, as a fraction (0.2 = 20% headroom for migration).
        slots_override: explicit per-disk slot capacity; overrides the
            slack-derived value. Set to ``num_extents`` to model disks
            whose capacity never binds (e.g. PDC's concentration, which
            assumes the lead disks can absorb the whole working set).
        initial_disks: restrict initial extent placement to these disks
            (e.g. MAID's passive disks); None = all disks.
        raid5: expand writes through the RAID-5 layer.
        deterministic_latency: use expected rotational latency instead of
            sampling (simplifies analytic tests).
        seed: base seed for per-disk latency randomness.
        initial_layout: 'striped' or 'packed' initial extent placement.
    """

    num_disks: int = 24
    spec: DiskSpec = field(default_factory=ultrastar_36z15)
    num_extents: int = 2400
    extent_bytes: int = 1 << 20
    slack_fraction: float = 0.25
    raid5: bool = False
    deterministic_latency: bool = False
    seed: int = 42
    initial_layout: str = "striped"
    initial_disks: tuple[int, ...] | None = None
    slots_override: int | None = None
    scheduler: str = "fcfs"
    #: Controller write-back cache (NVRAM): foreground writes complete at
    #: controller latency and destage to the disks in the background.
    #: Physical I/O (and its energy) is unchanged; only write response
    #: times decouple from the spindles.
    write_cache: bool = False
    write_cache_latency_s: float = 1e-4

    def __post_init__(self) -> None:
        # Validate at construction so a zero-disk config fails loudly
        # here instead of as a ZeroDivisionError deep inside the
        # simulator (e.g. ArraySimulation's speed sampling).
        if self.num_disks < 1:
            raise ValueError(f"ArrayConfig.num_disks must be >= 1, got {self.num_disks!r}")
        if self.num_extents < 1:
            raise ValueError(f"ArrayConfig.num_extents must be >= 1, got {self.num_extents!r}")

    @property
    def slots_per_disk(self) -> int:
        if self.slots_override is not None:
            if self.slots_override <= 0:
                raise ValueError("slots_override must be positive")
            return self.slots_override
        data_disks = self.num_disks if self.initial_disks is None else len(self.initial_disks)
        if data_disks == 0:
            raise ValueError("initial_disks leaves no disk to hold data")
        even_share = -(-self.num_extents // data_disks)  # ceil division
        return max(even_share + 1, int(even_share * (1.0 + self.slack_fraction)))


class DiskArray:
    """N multi-speed disks behind one logical extent-addressed volume."""

    def __init__(self, engine: Engine, config: ArrayConfig) -> None:
        if config.num_disks < 1:
            raise ValueError("array needs at least one disk")
        if config.raid5 and config.num_disks < 2:
            raise ValueError("RAID-5 needs at least two disks")
        self.engine = engine
        self.config = config
        # Hot-path copies of immutable config fields: submit() consults
        # these per request and the config attribute chain is measurable.
        self._num_extents = config.num_extents
        self._raid5 = config.raid5
        self._write_cache = config.write_cache
        self.extent_map = ExtentMap(
            num_extents=config.num_extents,
            num_disks=config.num_disks,
            slots_per_disk=config.slots_per_disk,
            initial=config.initial_layout,
            allowed_disks=config.initial_disks,
        )
        seed_seq = np.random.SeedSequence(config.seed)
        child_seeds = seed_seq.spawn(config.num_disks)
        self.disks = [
            MultiSpeedDisk(
                engine=engine,
                spec=config.spec,
                index=i,
                total_blocks=config.slots_per_disk,
                rng=None if config.deterministic_latency else np.random.default_rng(child_seeds[i]),
                scheduler=config.scheduler,
            )
            for i in range(config.num_disks)
        ]
        # Traffic counters.
        self.foreground_completed = 0
        self.migration_extents_moved = 0
        self.migration_bytes = 0
        self._next_internal_req_id = -1
        # Slots promised to in-flight migrations, per destination disk;
        # counted against free_slots so concurrent moves cannot
        # oversubscribe a disk.
        self._reserved_slots = [0] * config.num_disks
        # Fault injection (RAID-5 degraded-mode experiments).
        self.failed_disks: set[int] = set()
        self.failed_requests = 0
        self.degraded_reads = 0
        # Optional placement override (used by caching policies such as
        # MAID): called with the request, returns (disk, block) to serve
        # it from, or None for the extent map's placement.
        self.redirect: Callable[[Request], tuple[int, int] | None] | None = None
        # Structured-trace hook (repro.obs); None = tracing disabled.
        self.emit: Callable[[TraceEvent], None] | None = None
        # Fired whenever a migration releases slot capacity (a reserved
        # slot is returned or a completed move frees the source slot);
        # the rebuilder uses it to re-queue unplaced extents the moment
        # a target becomes available, without polling timers.
        self.on_capacity_freed: Callable[[], None] | None = None

    def install_trace_hook(self, emit: Callable[[TraceEvent], None]) -> None:
        """Install the observability ``emit`` hook on the array and disks."""
        self.emit = emit
        for disk in self.disks:
            disk.emit = emit

    # -- request path --------------------------------------------------------

    def submit(self, request: Request, on_complete: RequestCallback | None = None) -> None:
        """Issue a logical request; ``on_complete(request)`` fires when the
        last physical op finishes."""
        if not 0 <= request.extent < self._num_extents:
            raise ValueError(f"extent {request.extent} out of range")
        placement = self.redirect(request) if self.redirect is not None else None
        if placement is not None and placement[0] in self.failed_disks:
            # The policy's redirect target (e.g. a MAID cache disk) has
            # died; fall through to the home placement, which the
            # degraded path below knows how to serve.
            placement = None
        if placement is not None:
            data_disk, data_block = placement
        else:
            data_disk = self.extent_map.disk_of(request.extent)
            data_block = self.extent_map.slot_of(request.extent)
        kind = request.kind
        if not self.failed_disks:
            if not self._raid5 or kind is IoKind.READ:
                # Healthy non-RAID (or RAID read) expansion is exactly one
                # op at the extent's placement; skip the PhysicalIo fan-out
                # on this, the dominant path. `physicals is None` marks it.
                physicals = None
            else:
                physicals = expand_request(
                    request,
                    data_disk=data_disk,
                    data_block=data_block,
                    num_disks=self.config.num_disks,
                    raid5=self.config.raid5,
                )
        else:
            physicals = expand_request_degraded(
                request,
                data_disk=data_disk,
                data_block=data_block,
                num_disks=self.config.num_disks,
                raid5=self.config.raid5,
                failed=self.failed_disks,
            )
            if physicals is None:
                # Unservable (no redundancy / double failure).
                request.failed = True
                request.completion = self.engine.now
                self.failed_requests += 1
                if on_complete is not None:
                    on_complete(request)
                return
            if data_disk in self.failed_disks and kind is IoKind.READ:
                self.degraded_reads += 1
        request.on_complete = on_complete
        if (
            self._write_cache
            and kind is IoKind.WRITE
            and request.klass is RequestClass.FOREGROUND
        ):
            # Write-back cache: acknowledge now, destage in background.
            if physicals is None:
                self.submit_background_op(data_disk, data_block, kind, request.size)
            else:
                for phys in physicals:
                    self.submit_background_op(phys.disk, phys.block, phys.kind, phys.size)
            self.engine.schedule_after(
                self.config.write_cache_latency_s, self._acknowledge, request
            )
            return

        request.ops_outstanding = 1 if physicals is None else len(physicals)
        if physicals is None:
            self.disks[data_disk].submit(DiskOp(
                request=request,
                kind=kind,
                disk_index=data_disk,
                block=data_block,
                size=request.size,
                on_complete=self._op_done,
            ))
            return
        for phys in physicals:
            op = DiskOp(
                request=request,
                kind=phys.kind,
                disk_index=phys.disk,
                block=phys.block,
                size=phys.size,
                on_complete=self._op_done,
            )
            self.disks[phys.disk].submit(op)

    def _op_done(self, op: DiskOp) -> None:
        """One physical leg of a logical request finished; the request
        completes, and its callback fires, with its last leg."""
        request = op.request
        assert request is not None
        if op.failed:
            # A physical leg exhausted its retry budget (or its disk
            # died mid-retry): the logical request fails, but only
            # once every leg has unwound.
            request.failed = True
        request.ops_outstanding -= 1
        if request.ops_outstanding == 0:
            request.completion = self.engine.now
            if request.failed:
                self.failed_requests += 1
            elif request.klass is RequestClass.FOREGROUND:
                self.foreground_completed += 1
            on_complete = request.on_complete
            if on_complete is not None:
                on_complete(request)

    def _acknowledge(self, request: Request) -> None:
        """Write-back cache acknowledgement of a foreground write."""
        request.completion = self.engine.now
        self.foreground_completed += 1
        on_complete = request.on_complete
        if on_complete is not None:
            on_complete(request)

    # -- background traffic -------------------------------------------------

    def submit_background_op(
        self,
        disk: int,
        block: int,
        kind: IoKind,
        size: int,
        on_complete: Callable[[DiskOp], None] | None = None,
    ) -> None:
        """Queue one physical op outside the foreground request path.

        Used for policy-internal traffic (cache fills, destages,
        migration legs). The op competes for disk time and energy like
        any other but is never counted in response-time statistics.

        Targeting a failed disk is not an error: the op is delivered
        back as failed (``op.failed``) without touching the disk, so
        failure-unaware policies keep running degraded.
        """
        marker = Request(
            req_id=self._next_internal_req_id,
            arrival=self.engine.now,
            kind=kind,
            extent=0,
            offset=0,
            size=size,
            klass=RequestClass.MIGRATION,
        )
        self._next_internal_req_id -= 1
        op = DiskOp(
            request=marker,
            kind=kind,
            disk_index=disk,
            block=block,
            size=size,
            on_complete=on_complete,
        )
        if disk in self.failed_disks:
            op.failed = True
            op.finished = self.engine.now
            if on_complete is not None:
                on_complete(op)
            return
        self.disks[disk].submit(op)

    # -- migration -------------------------------------------------------------

    def migrate_extent(
        self,
        extent: int,
        to_disk: int,
        on_complete: Callable[[int], None] | None = None,
    ) -> bool:
        """Move one extent to ``to_disk``: read source, write target,
        update the map.

        The read and write are real queued ops, so migration competes
        with foreground traffic for disk time and consumes energy — the
        overhead the paper charges against each scheme.

        Returns False (no ops issued) when the extent already lives on
        ``to_disk`` or the target has no free slot.
        """
        from_disk = self.extent_map.disk_of(extent)
        if from_disk == to_disk:
            return False
        if from_disk in self.failed_disks or to_disk in self.failed_disks:
            return False
        if self.extent_map.free_slots(to_disk) - self._reserved_slots[to_disk] <= 0:
            return False
        self._reserved_slots[to_disk] += 1
        size = self.config.extent_bytes

        def _abort(_reason_op: DiskOp) -> None:
            # Release the promised slot without moving the extent; the
            # caller observes the unchanged map via on_complete.
            self._reserved_slots[to_disk] -= 1
            if self.emit is not None:
                self.emit(MigrationCancelled(time=self.engine.now, unplaced=1))
            if on_complete is not None:
                on_complete(extent)
            self._notify_capacity_freed()

        def _write_done(op: DiskOp) -> None:
            if op.failed or to_disk in self.failed_disks:
                # The write never landed (retry exhaustion) or the target
                # died after draining it; the extent stays where it was.
                _abort(op)
                return
            self._reserved_slots[to_disk] -= 1
            self.extent_map.move(extent, to_disk)
            self.migration_extents_moved += 1
            self.migration_bytes += size
            if self.emit is not None:
                self.emit(MigrationMove(
                    time=self.engine.now,
                    extent=extent,
                    from_disk=from_disk,
                    to_disk=to_disk,
                ))
            if on_complete is not None:
                on_complete(extent)
            # The move vacated a slot on the source disk.
            self._notify_capacity_freed()

        def _read_done(op: DiskOp) -> None:
            if op.failed or to_disk in self.failed_disks:
                _abort(op)
                return
            # The write lands at whatever free slot the map will assign;
            # using the source slot as the physical position is a uniform
            # stand-in (placement is uniform either way).
            block = min(self.extent_map.slot_of(extent), self.config.slots_per_disk - 1)
            self.submit_background_op(to_disk, block, IoKind.WRITE, size, _write_done)

        self.submit_background_op(
            from_disk, self.extent_map.slot_of(extent), IoKind.READ, size, _read_done
        )
        return True

    def _notify_capacity_freed(self) -> None:
        if self.on_capacity_freed is not None:
            self.on_capacity_freed()

    # -- fault injection ------------------------------------------------------

    def fail_disk(self, index: int) -> None:
        """Fail one disk; subsequent requests route around it.

        With RAID-5, reads of its data reconstruct from the surviving
        disks and writes degrade to parity-only updates. Without RAID,
        requests addressing its extents fail.
        """
        if not 0 <= index < self.num_disks:
            raise ValueError(f"no disk {index}")
        self.failed_disks.add(index)
        self.disks[index].fail()

    # -- power control -----------------------------------------------------------

    def set_speed(self, disk_index: int, rpm: int) -> None:
        """Request a speed for one disk (0 = standby)."""
        self.disks[disk_index].set_speed(rpm)

    def set_all_speeds(self, rpm: int) -> None:
        """Request the same speed on every disk."""
        for disk in self.disks:
            disk.set_speed(rpm)

    def speeds(self) -> list[int]:
        """Current spindle speed of each disk."""
        return [disk.rpm for disk in self.disks]

    # -- accounting ----------------------------------------------------------------

    def total_energy(self, now: float | None = None) -> float:
        """Total joules consumed by all disks up to ``now`` (default: the
        engine clock). Does not close the meters."""
        if now is None:
            now = self.engine.now
        total = 0.0
        for disk in self.disks:
            disk.meter.update(now, disk.meter.watts, disk.meter.label)
            total += disk.meter.total_joules
        return total

    def power_breakdown(self, now: float | None = None) -> PowerBreakdown:
        """Array-wide energy breakdown by category."""
        if now is None:
            now = self.engine.now
        merged = PowerBreakdown()
        for disk in self.disks:
            disk.meter.update(now, disk.meter.watts, disk.meter.label)
            merged.merge(disk.meter.breakdown)
        return merged

    @property
    def num_disks(self) -> int:
        return self.config.num_disks

    @property
    def num_extents(self) -> int:
        return self.config.num_extents
