"""Property-based tests (hypothesis) on core data structures and
invariants."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disks.disk import DiskState
from repro.disks.mapping import ExtentMap
from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import make_multispeed_spec, ultrastar_36z15
from repro.policies.tpm import IdleSpindownManager
from repro.sim.engine import Engine
from repro.sim.stats import DeficitTracker, OnlineStats, TimeWeighted


# ---------------------------------------------------------------------------
# Engine: event ordering; idle spin-down timers
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_engine_fires_in_sorted_order(times):
    engine = Engine()
    fired = []
    for t in times:
        engine.schedule(t, fired.append, t)
    engine.run()
    assert fired == sorted(times)
    assert engine.now == max(times)


class _FakeDisk:
    """The slice of MultiSpeedDisk the idle spin-down manager uses."""

    index = 0
    queue_length = 0

    def __init__(self, engine):
        self.engine = engine
        self.state = DiskState.IDLE
        self.on_idle = None
        self.on_activity = None
        self.spin_downs = []

    def busy(self):
        self.state = DiskState.ACTIVE
        self.on_activity(self)

    def idle(self):
        self.state = DiskState.IDLE
        self.on_idle(self)

    def spin_down(self):
        self.spin_downs.append(self.engine.now)
        self.state = DiskState.STANDBY


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                          st.integers(min_value=1, max_value=4)),
                max_size=12),
       st.integers(min_value=1, max_value=6))
def test_idle_timer_fires_only_after_a_full_idle_stretch(periods, threshold):
    """``periods`` are (idle, busy) tick counts from t=0, after which the
    disk stays idle. The disk spins down ``threshold`` after the start of
    the first idle stretch longer than the threshold. On a tie the timer
    ``manage()`` armed before the activity was scheduled fires first; a
    timer armed later by the disk going idle loses to the activity."""
    engine = Engine()
    disk = _FakeDisk(engine)
    IdleSpindownManager(engine, threshold_s=float(threshold)).manage(disk)
    t = 0
    for idle, busy in periods:
        engine.schedule(float(t + idle), disk.busy)
        engine.schedule(float(t + idle + busy), disk.idle)
        t += idle + busy
    engine.run()
    start = 0
    for idle, busy in periods:
        if idle > threshold or (start == 0 and idle == threshold):
            break
        start += idle + busy
    assert disk.spin_downs[0] == start + threshold


# ---------------------------------------------------------------------------
# OnlineStats vs numpy
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_online_stats_matches_numpy(xs):
    s = OnlineStats()
    for x in xs:
        s.add(x)
    assert s.n == len(xs)
    assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
    assert s.variance == pytest.approx(np.var(xs), rel=1e-6, abs=1e-3)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=2, max_size=100),
       st.integers(min_value=1, max_value=99))
def test_online_stats_merge_any_split(xs, split_pct):
    cut = max(1, min(len(xs) - 1, len(xs) * split_pct // 100))
    a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
    for x in xs[:cut]:
        a.add(x)
    for x in xs[cut:]:
        b.add(x)
    for x in xs:
        c.add(x)
    a.merge(b)
    assert a.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-9)
    assert a.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# DeficitTracker: the guarantee identity
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=1, max_size=200),
       st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
def test_deficit_identity(latencies, goal):
    """deficit == n * (cumulative_average - goal), violated iff avg > goal."""
    d = DeficitTracker(goal)
    for lat in latencies:
        d.add(lat)
    avg = sum(latencies) / len(latencies)
    assert d.deficit == pytest.approx(len(latencies) * (avg - goal), abs=1e-6)
    assert d.violated == (d.deficit > 0)


# ---------------------------------------------------------------------------
# TimeWeighted: integral additivity
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                          st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)),
                min_size=1, max_size=50))
def test_time_weighted_integral(steps):
    tw = TimeWeighted(initial=0.0)
    t = 0.0
    expected = 0.0
    value = 0.0
    for dt, new_value in steps:
        expected += value * dt
        t += dt
        tw.update(t, new_value)
        value = new_value
    assert tw.integral == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# ExtentMap: invariants under arbitrary move/swap sequences
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),   # extents
    st.integers(min_value=1, max_value=6),    # disks
    st.data(),
)
def test_extent_map_invariants_under_mutation(num_extents, num_disks, data):
    slots = max(-(-num_extents // num_disks) + 2, 4)
    m = ExtentMap(num_extents, num_disks, slots)
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["move", "swap"]),
                  st.integers(0, num_extents - 1),
                  st.integers(0, max(num_extents - 1, num_disks - 1))),
        max_size=40,
    ))
    for op, a, b in ops:
        if op == "move":
            disk = b % num_disks
            if m.free_slots(disk) > 0:
                m.move(a, disk)
        else:
            m.swap(a, b % num_extents)
    m.check_invariants()


# ---------------------------------------------------------------------------
# Mechanics: physical sanity across the whole parameter space
# ---------------------------------------------------------------------------

@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_seek_curve_bounded_monotone(d):
    mech = DiskMechanics(ultrastar_36z15())
    s = mech.seek_time(d)
    assert 0.0 <= s <= mech.max_seek_s
    if d > 0:
        assert s >= mech.min_seek_s


@given(st.sampled_from([3000, 6000, 9000, 12000, 15000]),
       st.integers(min_value=512, max_value=1 << 22))
def test_service_moments_sane(rpm, size):
    mech = DiskMechanics(ultrastar_36z15())
    m = mech.service_moments(rpm, float(size))
    assert m.mean > 0
    assert m.second >= m.mean * m.mean  # E[S^2] >= (E[S])^2
    assert m.variance >= 0


@given(st.integers(min_value=1, max_value=6))
def test_spec_power_ordering_any_level_count(num_levels):
    if 15000 % num_levels:
        return
    spec = make_multispeed_spec(num_levels=num_levels)
    watts = [spec.idle_watts(r) for r in spec.rpm_levels]
    assert watts == sorted(watts)
    assert all(w >= spec.standby_watts for w in watts)
    assert spec.active_watts(spec.max_rpm) > spec.idle_watts(spec.max_rpm)


@given(st.sampled_from([0, 3000, 6000, 9000, 12000, 15000]),
       st.sampled_from([0, 3000, 6000, 9000, 12000, 15000]))
def test_transition_costs_nonnegative_and_symmetric_between_levels(a, b):
    spec = ultrastar_36z15()
    s, j = spec.transition_cost(a, b)
    assert s >= 0 and j >= 0
    if a != 0 and b != 0:
        assert spec.transition_cost(a, b) == spec.transition_cost(b, a)


# ---------------------------------------------------------------------------
# Zipf popularity: distribution properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=500),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_zipf_probabilities_valid(n, theta):
    from repro.traces.synthetic import ZipfPopularity

    z = ZipfPopularity(n, theta, np.random.default_rng(0))
    p = z.extent_probability()
    assert p.shape == (n,)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0)
    ranked = z.probabilities
    assert np.all(np.diff(ranked) <= 1e-15)  # non-increasing by rank
