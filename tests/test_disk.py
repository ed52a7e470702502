"""Unit tests for the multi-speed disk state machine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disks.array import ArrayConfig, DiskArray
from repro.disks.disk import ROTATION_DRAW_BLOCK, DiskState, MultiSpeedDisk
from repro.disks.specs import ultrastar_36z15
from repro.sim.engine import Engine
from repro.sim.request import DiskOp, IoKind


def make_disk(engine: Engine, initial_rpm: int | None = None, **kwargs) -> MultiSpeedDisk:
    return MultiSpeedDisk(
        engine=engine,
        spec=ultrastar_36z15(),
        index=0,
        total_blocks=100,
        rng=None,  # deterministic latency
        initial_rpm=initial_rpm,
        **kwargs,
    )


def make_op(block: int = 10, size: int = 4096, kind: IoKind = IoKind.READ, on_complete=None) -> DiskOp:
    return DiskOp(
        request=None, kind=kind, disk_index=0, block=block, size=size, on_complete=on_complete
    )


def test_initial_state_full_speed(engine):
    disk = make_disk(engine)
    assert disk.state is DiskState.IDLE
    assert disk.rpm == 15000
    assert disk.is_spinning


def test_initial_standby(engine):
    disk = make_disk(engine, initial_rpm=0)
    assert disk.state is DiskState.STANDBY
    assert not disk.is_spinning


def test_serves_op_and_completes(engine):
    disk = make_disk(engine)
    done = []
    disk.submit(make_op(on_complete=lambda op: done.append(op)))
    engine.run()
    assert len(done) == 1
    op = done[0]
    assert op.started == 0.0
    assert op.finished is not None and op.finished > 0
    assert disk.ops_completed == 1
    assert disk.state is DiskState.IDLE
    assert disk.head_block == 10


def test_service_time_matches_mechanics(engine):
    disk = make_disk(engine)
    done = []
    disk.submit(make_op(block=50, size=4096, on_complete=done.append))
    engine.run()
    expected = disk.mechanics.service_time(0, 50, 100, 4096, 15000)
    assert done[0].service_time == pytest.approx(expected)


def test_fcfs_ordering(engine):
    disk = make_disk(engine)
    finished = []
    for block in (5, 60, 20):
        disk.submit(make_op(block=block, on_complete=lambda op: finished.append(op.block)))
    engine.run()
    assert finished == [5, 60, 20]


def test_queue_length_excludes_in_service(engine):
    disk = make_disk(engine)
    disk.submit(make_op())
    disk.submit(make_op())
    disk.submit(make_op())
    # First op started service immediately; two remain queued.
    assert disk.busy
    assert disk.queue_length == 2


def test_speed_change_when_idle_takes_transition_time(engine):
    disk = make_disk(engine)
    disk.set_speed(3000)
    assert disk.state is DiskState.TRANSITION
    engine.run()
    assert disk.rpm == 3000
    assert disk.state is DiskState.IDLE
    expected_s, _ = disk.spec.transition_cost(15000, 3000)
    assert engine.now == pytest.approx(expected_s)
    assert disk.speed_changes == 1


def test_speed_change_deferred_while_active(engine):
    disk = make_disk(engine)
    disk.submit(make_op())
    disk.set_speed(3000)
    assert disk.rpm == 15000  # not yet
    engine.run()
    assert disk.rpm == 3000


def test_ops_arriving_mid_transition_wait(engine):
    disk = make_disk(engine)
    disk.set_speed(3000)
    done = []
    disk.submit(make_op(on_complete=lambda op: done.append(op)))
    engine.run()
    trans_s, _ = disk.spec.transition_cost(15000, 3000)
    assert done[0].started >= trans_s
    assert done[0].queue_delay >= trans_s


def test_spin_down_and_wake_on_arrival(engine):
    disk = make_disk(engine)
    disk.spin_down()
    engine.run()
    assert disk.state is DiskState.STANDBY
    assert disk.rpm == 0
    done = []
    disk.submit(make_op(on_complete=lambda op: done.append(op)))
    engine.run()
    assert disk.state is DiskState.IDLE
    assert disk.rpm == 15000  # resumes the last requested speed
    assert disk.spinups == 1
    spinup_s, _ = disk.spec.transition_cost(0, 15000)
    assert done[0].queue_delay >= spinup_s


def test_spin_down_ignored_with_queued_work(engine):
    disk = make_disk(engine)
    disk.submit(make_op())
    disk.spin_down()
    engine.run()
    assert disk.state is DiskState.IDLE
    assert disk.rpm == 15000


def test_arrival_during_spin_down_bounces_back(engine):
    disk = make_disk(engine)
    disk.spin_down()
    # Mid-spin-down arrival: must complete the spin-down, then spin up.
    engine.schedule(0.5, lambda: disk.submit(make_op()))
    engine.run()
    assert disk.rpm == 15000
    assert disk.ops_completed == 1
    assert disk.spinups == 1


def test_resume_speed_is_last_requested(engine):
    disk = make_disk(engine)
    disk.set_speed(6000)
    engine.run()
    disk.spin_down()
    engine.run()
    disk.submit(make_op())
    engine.run()
    assert disk.rpm == 6000


def test_speed_request_changed_mid_transition_chains(engine):
    disk = make_disk(engine)
    disk.set_speed(3000)
    disk.set_speed(9000)  # changed mind mid-transition
    engine.run()
    assert disk.rpm == 9000


def test_set_speed_invalid_rpm_raises(engine):
    disk = make_disk(engine)
    with pytest.raises(ValueError):
        disk.set_speed(5000)


def test_energy_idle_only(engine):
    disk = make_disk(engine)
    engine.schedule(100.0, lambda: None)
    engine.run()
    joules = disk.finish_accounting(engine.now)
    assert joules == pytest.approx(100.0 * disk.spec.idle_watts(15000))


def test_energy_standby_cheaper(engine):
    disk_a = make_disk(engine)
    disk_b = make_disk(engine, initial_rpm=0)
    engine.schedule(1000.0, lambda: None)
    engine.run()
    idle_j = disk_a.finish_accounting(engine.now)
    standby_j = disk_b.finish_accounting(engine.now)
    assert standby_j == pytest.approx(1000.0 * 2.5)
    assert standby_j < idle_j / 3


def test_energy_includes_active_premium(engine):
    disk = make_disk(engine)
    disk.submit(make_op(block=50))
    engine.run()
    end = engine.now
    joules = disk.finish_accounting(end)
    idle_only = end * disk.spec.idle_watts(15000)
    service = end  # the whole run was one op's service
    expected_premium = service * disk.spec.seek_watts
    assert joules == pytest.approx(idle_only + expected_premium)


def test_transition_energy_is_lump_sum(engine):
    disk = make_disk(engine)
    disk.set_speed(3000)
    engine.run()
    trans_s, trans_j = disk.spec.transition_cost(15000, 3000)
    joules = disk.finish_accounting(engine.now)
    assert engine.now == pytest.approx(trans_s)
    assert joules == pytest.approx(trans_j)
    assert disk.meter.breakdown.joules["transition"] == pytest.approx(trans_j)


def test_force_speed_instantaneous(engine):
    disk = make_disk(engine)
    disk.force_speed(3000)
    assert disk.rpm == 3000
    assert disk.state is DiskState.IDLE
    assert engine.now == 0.0
    assert disk.speed_changes == 0


def test_force_speed_to_standby(engine):
    disk = make_disk(engine)
    disk.force_speed(0)
    assert disk.state is DiskState.STANDBY


def test_force_speed_after_io_raises(engine):
    disk = make_disk(engine)
    disk.submit(make_op())
    engine.run()
    with pytest.raises(RuntimeError):
        disk.force_speed(3000)


def test_on_idle_callback_fires_after_drain(engine):
    disk = make_disk(engine)
    idles = []
    disk.on_idle = lambda d: idles.append(engine.now)
    disk.submit(make_op())
    disk.submit(make_op())
    engine.run()
    assert len(idles) == 1  # once, when the queue drained


def test_on_activity_callback_fires_on_submit(engine):
    disk = make_disk(engine)
    activity = []
    disk.on_activity = lambda d: activity.append(engine.now)
    disk.submit(make_op())
    assert activity == [0.0]


def test_low_speed_service_slower_end_to_end(engine):
    fast_engine, slow_engine = Engine(), Engine()
    fast = make_disk(fast_engine)
    slow = make_disk(slow_engine, initial_rpm=3000)
    done_f, done_s = [], []
    fast.submit(make_op(block=50, size=65536, on_complete=done_f.append))
    slow.submit(make_op(block=50, size=65536, on_complete=done_s.append))
    fast_engine.run()
    slow_engine.run()
    assert done_s[0].service_time > done_f[0].service_time


def _record_service_times(disk: MultiSpeedDisk) -> list[float]:
    """Shadow the disk's per-op service_time with one that records."""
    served: list[float] = []
    real = disk.mechanics.service_time

    def recording(*args):
        served.append(real(*args))
        return served[-1]

    disk.mechanics.service_time = recording
    return served


def _serve_all(disk: MultiSpeedDisk, engine: Engine, blocks: list[int], sizes: list[int]) -> None:
    for block, size in zip(blocks, sizes):
        disk.submit(make_op(block=block, size=size))
    engine.run()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    rpm=st.sampled_from(ultrastar_36z15().rpm_levels),
    num_ops=st.integers(3 * ROTATION_DRAW_BLOCK + 1, 4 * ROTATION_DRAW_BLOCK + 17),
)
def test_buffered_rotation_draws_equal_scalar_draws(seed, rpm, num_ops):
    """Rotation fractions drawn in blocks give service times bit-identical
    to one scalar ``uniform(0.0, rotation_s)`` draw per op from a
    generator with the same seed, across several buffer refills."""
    engine = Engine()
    disk = MultiSpeedDisk(
        engine=engine, spec=ultrastar_36z15(), total_blocks=100,
        rng=np.random.default_rng(seed), initial_rpm=rpm,
    )
    served = _record_service_times(disk)
    layout = np.random.default_rng([seed, 1])
    blocks = layout.integers(0, 100, size=num_ops).tolist()
    sizes = (512 * layout.integers(1, 129, size=num_ops)).tolist()
    _serve_all(disk, engine, blocks, sizes)

    mech = disk.mechanics
    scalar = np.random.default_rng(seed)
    rotation_s, bps = mech.spec.rotation_s(rpm), mech.spec.transfer_bps(rpm)
    expected, head = [], 0
    for block, size in zip(blocks, sizes):
        seek = mech.seek_time(min(abs(block - head) / 99, 1.0))
        expected.append(seek + float(scalar.uniform(0.0, rotation_s)) + size / bps)
        head = block
    assert len(served) == num_ops
    assert [t.hex() for t in served] == [t.hex() for t in expected]


def test_deterministic_latency_is_half_a_rotation():
    engine = Engine()
    config = ArrayConfig(num_disks=1, num_extents=40, deterministic_latency=True)
    disk = DiskArray(engine, config).disks[0]
    assert disk.rng is None
    disk.force_speed(6000)
    served = _record_service_times(disk)
    _serve_all(disk, engine, [0, 30, 30], [4096, 8192, 512])
    mech, span = disk.mechanics, disk.total_blocks - 1
    half = mech.spec.rotation_s(6000) / 2
    bps = mech.spec.transfer_bps(6000)
    assert served == [
        0.0 + half + 4096 / bps,
        mech.seek_time(30 / span) + half + 8192 / bps,
        0.0 + half + 512 / bps,
    ]
