"""Unit tests for the CR speed-setting optimizer."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import speed_setting
from repro.core.response_model import MG1ResponseModel
from repro.core.speed_setting import (
    SpeedAssignment,
    SpeedSettingConfig,
    solve_speed_assignment,
)
from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import ultrastar_36z15
from tests.cr_reference import reference_solve_speed_assignment


@pytest.fixture
def model():
    return MG1ResponseModel(DiskMechanics(ultrastar_36z15()), mean_request_bytes=4096)


def solve(heat, num_disks=4, model=None, goal=None, prev=None, cfg=None,
          epoch=3600.0, spec=None):
    spec = spec or ultrastar_36z15()
    model = model or MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=4096)
    return solve_speed_assignment(
        heat=np.asarray(heat, dtype=float),
        num_disks=num_disks,
        model=model,
        spec=spec,
        epoch_seconds=epoch,
        goal_s=goal,
        prev_boundaries=prev,
        config=cfg or SpeedSettingConfig(change_penalty_joules=0.0),
    )


def uniform_heat(num_extents=80, total_rate=40.0):
    return np.full(num_extents, total_rate / num_extents)


def test_boundaries_well_formed():
    a = solve(uniform_heat(), goal=0.05)
    assert a.boundaries[0] == 0
    assert a.boundaries[-1] == 4
    assert list(a.boundaries) == sorted(a.boundaries)
    assert sum(a.counts) == 4
    assert len(a.extent_boundaries) == len(a.boundaries)
    assert a.extent_boundaries[-1] == 80


def test_near_zero_load_all_slowest():
    a = solve(np.full(80, 1e-6), goal=1.0)
    assert a.counts[-1] == 4  # everything in the slowest tier
    assert a.feasible


def test_tight_goal_forces_full_speed():
    """A goal just above the full-speed response leaves no room for any
    slower tier: the optimizer must keep every disk at full speed, and
    feasibly so (no fallback)."""
    model = MG1ResponseModel(DiskMechanics(ultrastar_36z15()), mean_request_bytes=4096)
    rate = 100.0
    r_full = model.response_time(15000, rate / 4)
    a = solve(
        uniform_heat(total_rate=rate),
        goal=r_full * 1.01,
        model=model,
        cfg=SpeedSettingConfig(change_penalty_joules=0.0, goal_margin=0.0),
    )
    assert a.counts[0] == 4  # all disks at full speed
    assert a.feasible


def test_loose_goal_saves_energy():
    tight = solve(uniform_heat(), goal=0.007)
    loose = solve(uniform_heat(), goal=0.05)
    assert loose.predicted_energy_joules < tight.predicted_energy_joules


def test_energy_monotone_in_slack():
    energies = [
        solve(uniform_heat(total_rate=80.0), goal=g).predicted_energy_joules
        for g in (0.008, 0.012, 0.02, 0.05)
    ]
    assert energies == sorted(energies, reverse=True)


def test_predicted_response_within_planning_goal():
    goal = 0.02
    cfg = SpeedSettingConfig(change_penalty_joules=0.0, goal_margin=0.1)
    a = solve(uniform_heat(total_rate=100.0), goal=goal, cfg=cfg)
    assert a.feasible
    assert a.predicted_response_s <= goal * 0.9 + 1e-12


def test_infeasible_falls_back_to_full_speed():
    # A goal below the fastest service time is unmeetable.
    a = solve(uniform_heat(total_rate=100.0), goal=1e-4)
    assert not a.feasible
    assert a.counts[0] == 4


def test_no_goal_minimizes_energy_with_stability():
    a = solve(uniform_heat(total_rate=4.0), goal=None)
    assert a.feasible
    # With negligible load and no goal, everything crawls.
    assert a.counts[-1] == 4


def test_overload_without_goal_keeps_stability():
    """Load that saturates the slowest speed must not be assigned there."""
    spec = ultrastar_36z15()
    model = MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=4096)
    slow_capacity = 1.0 / model.moments(3000).mean  # per-disk rate at rho=1
    heat = uniform_heat(total_rate=4 * slow_capacity * 0.99)
    a = solve(heat, goal=None, model=model, spec=spec)
    assert a.feasible
    for p in a.predictions:
        if p.tier_lambda > 0:
            assert p.utilization < model.max_utilization


def test_skewed_heat_uses_tiers():
    """With strong skew and moderate slack, the optimizer should split
    the array: a small fast tier for the hot extents, slow tier for the
    cold tail."""
    heat = np.zeros(80)
    heat[:8] = 10.0    # 80 req/s concentrated on 10% of extents
    heat[8:] = 0.05
    a = solve(heat, goal=0.015)
    assert a.feasible
    used_speeds = [rpm for rpm, c in zip(a.speeds_desc, a.counts) if c > 0]
    assert len(used_speeds) >= 2
    assert used_speeds[0] > used_speeds[-1]


def test_matches_brute_force_enumeration():
    """The pruned search must be exactly optimal over all candidate
    partitions (verified against plain itertools enumeration)."""
    spec = ultrastar_36z15(3)
    model = MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=4096)
    rng = np.random.default_rng(5)
    heat = rng.exponential(0.8, size=40)
    goal = 0.018
    num_disks = 4
    a = solve(heat, num_disks=num_disks, model=model, goal=goal, spec=spec)

    speeds_desc = tuple(sorted(spec.rpm_levels, reverse=True))
    sorted_heat = np.sort(heat)[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_heat)))
    total = prefix[-1]
    share = len(heat) / num_disks

    def evaluate(bounds):
        energy, weighted = 0.0, 0.0
        for t in range(len(speeds_desc)):
            lo, hi = bounds[t], bounds[t + 1]
            if hi == lo:
                continue
            e_lo = int(round(lo * share))
            e_hi = len(heat) if hi == num_disks else int(round(hi * share))
            lam = prefix[e_hi] - prefix[e_lo]
            per = lam / (hi - lo)
            m = model.moments(speeds_desc[t])
            rho = per * m.mean
            if lam > 0 and rho >= model.max_utilization:
                return None
            r = m.mean + (per * m.second / (2 * (1 - rho)) if lam > 0 else 0.0)
            weighted += lam * r
            energy += (hi - lo) * spec.idle_watts(speeds_desc[t]) * 3600.0
            energy += lam * m.mean * spec.seek_watts * 3600.0
        if weighted > goal * (1 - 0.1) * total:
            return None
        return energy

    best = math.inf
    for bounds_mid in itertools.combinations_with_replacement(
        range(num_disks + 1), len(speeds_desc) - 1
    ):
        bounds = (0,) + bounds_mid + (num_disks,)
        if list(bounds) != sorted(bounds):
            continue
        energy = evaluate(bounds)
        if energy is not None and energy < best:
            best = energy
    assert a.feasible
    assert a.predicted_energy_joules == pytest.approx(best)


def test_change_penalty_prefers_staying_put():
    """With a huge reconfiguration penalty, the optimizer should keep
    the previous boundaries when they remain feasible."""
    heat = uniform_heat(total_rate=40.0)
    free = solve(heat, goal=0.02)
    prev = tuple(b + 1 if 0 < b < 4 else b for b in free.boundaries)
    prev = tuple(min(b, 4) for b in prev)
    pinned = solve(
        heat, goal=0.02, prev=prev,
        cfg=SpeedSettingConfig(change_penalty_joules=1e12),
    )
    assert pinned.boundaries == prev


def test_describe_format():
    a = solve(uniform_heat(), goal=0.05)
    desc = a.describe()
    assert "@" in desc
    total = sum(int(part.split("@")[0]) for part in desc.split("+"))
    assert total == 4


def test_rpm_for_position_consistent():
    a = solve(uniform_heat(total_rate=100.0), goal=0.015)
    speeds = [a.rpm_for_position(p) for p in range(4)]
    assert speeds == sorted(speeds, reverse=True)
    with pytest.raises(ValueError):
        a.rpm_for_position(4)


def test_input_validation(model):
    spec = ultrastar_36z15()
    with pytest.raises(ValueError):
        solve_speed_assignment(np.array([]), 4, model, spec, 3600.0, 0.01)
    with pytest.raises(ValueError):
        solve_speed_assignment(np.ones(4), 0, model, spec, 3600.0, 0.01)
    with pytest.raises(ValueError):
        solve_speed_assignment(np.ones(4), 4, model, spec, 0.0, 0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        SpeedSettingConfig(change_penalty_joules=-1.0)
    with pytest.raises(ValueError):
        SpeedSettingConfig(goal_margin=1.0)


def test_single_speed_spec_degenerates():
    spec = ultrastar_36z15().with_levels((15000,))
    a = solve(uniform_heat(), goal=0.05, spec=spec)
    assert a.counts == (4,)
    assert a.feasible


# -- exactness against the depth-first search it replaced ----------------------

def solve_both(heat, num_disks, spec, goal, prev=None, cfg=None, epoch=60.0,
               request_bytes=8192.0):
    """Solve with the production search and the reference DFS; both must
    return the same SpeedAssignment, floats compared exactly."""
    model = MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=request_bytes)
    args = dict(
        heat=np.asarray(heat, dtype=float), num_disks=num_disks, model=model, spec=spec,
        epoch_seconds=epoch, goal_s=goal, prev_boundaries=prev,
        config=cfg or SpeedSettingConfig(),
    )
    got = solve_speed_assignment(**args)
    want = reference_solve_speed_assignment(**args)
    assert got == want
    assert type(got.predicted_energy_joules) is float
    assert all(type(b) is int for b in got.boundaries)
    return got


def zipf_heat(num_extents, total_rate, alpha=0.9):
    heat = 1.0 / np.arange(1, num_extents + 1) ** alpha
    return heat / heat.sum() * total_rate


@st.composite
def heats(draw, num_disks):
    """Per-extent rates with zeros and ties (or none at all), scaled to a
    per-disk load from near idle to past full-speed saturation."""
    size = draw(st.integers(1, 48))
    kind = draw(st.sampled_from(["random", "ties", "random", "ties", "zeros"]))
    if kind == "zeros":
        return [0.0] * size
    if kind == "ties":
        values = st.sampled_from([0.0, 0.5, 2.0, 2.0, 8.0])
    else:
        values = st.floats(0.0, 50.0)
    heat = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    per_disk_rate = draw(st.sampled_from([0.5, 5.0, 30.0, 80.0, 200.0]))
    total = heat.sum()
    return heat if total == 0 else heat / total * (per_disk_rate * num_disks)


@st.composite
def prev_boundaries(draw, num_disks, num_speeds):
    kind = draw(st.sampled_from(["none", "right", "wrong-length"]))
    if kind == "none":
        return None
    positions = st.integers(0, num_disks)
    if kind == "right":
        inner = sorted(draw(st.lists(positions, min_size=num_speeds - 1, max_size=num_speeds - 1)))
        return (0, *inner, num_disks)
    length = draw(st.integers(0, num_speeds + 3).filter(lambda n: n != num_speeds + 1))
    return tuple(draw(st.lists(positions, min_size=length, max_size=length)))


@st.composite
def problems(draw):
    num_speeds = draw(st.sampled_from([1, 2, 3, 4, 5]))
    num_disks = draw(st.integers(1, 16))
    goal = draw(st.sampled_from([
        None,      # energy only: every loaded tier must just be stable
        0.05,      # loose
        0.008,     # the benchmark's goal
        0.0055,    # tight
        1e-4,      # infeasible: the all-full-speed fallback
    ]))
    cfg = SpeedSettingConfig(
        change_penalty_joules=draw(st.sampled_from([0.0, 200.0, 1e5])),
        goal_margin=draw(st.sampled_from([0.0, 0.1])),
    )
    return dict(
        heat=draw(heats(num_disks)),
        num_disks=num_disks,
        spec=ultrastar_36z15(num_speeds),
        goal=goal,
        prev=draw(prev_boundaries(num_disks, num_speeds)),
        cfg=cfg,
        epoch=draw(st.sampled_from([60.0, 3600.0])),
        request_bytes=draw(st.sampled_from([4096.0, 65536.0])),
    )


@settings(max_examples=300, deadline=None)
@given(problems(), st.sampled_from([1, 8, 64, speed_setting._BLOCK_ROWS]))
def test_search_matches_reference_dfs(problem, block_rows):
    """Any block cap gives the same answer: a smaller one only moves
    boundaries from the numpy blocks into the pruned Python walk (a cap
    of 1 walks every boundary)."""
    with mock.patch.object(speed_setting, "_BLOCK_ROWS", block_rows):
        solve_both(**problem)


@pytest.mark.parametrize("block_rows", [1, speed_setting._BLOCK_ROWS])
def test_idle_array_keeps_previous_boundaries(block_rows):
    """With no load the response budget is 0 and every tier's weighted
    response is exactly 0, which meets it. A high change penalty must then
    keep last epoch's boundaries, in the walk (cap 1) as in a block."""
    with mock.patch.object(speed_setting, "_BLOCK_ROWS", block_rows):
        a = solve_both([0.0] * 10, 4, ultrastar_36z15(3), 0.008, prev=(0, 2, 3, 4),
                       cfg=SpeedSettingConfig(change_penalty_joules=1e5))
    assert a.boundaries == (0, 2, 3, 4)


def test_matches_reference_at_bench_width():
    """One oltp-wide-hib-sized solve: 48 disks, Zipf-0.9 heat over 4800
    extents, the 8 ms goal and a boundary-change penalty."""
    a = solve_both(zipf_heat(4800, 400.0), 48, ultrastar_36z15(), 0.008,
                   prev=(0, 10, 12, 40, 48, 48))
    assert a.feasible


@pytest.mark.parametrize("num_disks", [1, 4, 9])
@pytest.mark.parametrize("goal", [None, 0.008, 1e-4])
def test_single_speed_matches_reference(num_disks, goal):
    """K = 1: no boundary is free, the one tier takes every disk."""
    a = solve_both(zipf_heat(40, 30.0), num_disks, ultrastar_36z15(1), goal,
                   prev=(0, num_disks), cfg=SpeedSettingConfig(change_penalty_joules=200.0))
    assert a.boundaries == (0, num_disks)


def test_wide_two_speed_array_outgrows_uint8():
    """256 disks do not fit uint8; the suffix table widens to uint16."""
    a = solve_both(zipf_heat(2560, 900.0), 256, ultrastar_36z15(2), 0.008)
    assert a.feasible
    table, _ = speed_setting._suffix_table(256, speed_setting._trailing_width(256, 1))
    assert table.dtype == np.uint16


def test_eight_speeds_stay_within_the_block_cap(monkeypatch):
    """16 disks at 8 speeds have 245,157 boundary vectors; no table (and
    so no block, a slice of one) may hold more than the cap."""
    shapes = []
    real = speed_setting._suffix_table

    def recording(num_disks, width):
        table, starts = real(num_disks, width)
        shapes.append(table.shape)
        return table, starts

    monkeypatch.setattr(speed_setting, "_suffix_table", recording)
    solve_both(zipf_heat(1600, 130.0), 16, ultrastar_36z15(8), 0.008)
    assert shapes and all(rows <= speed_setting._BLOCK_ROWS for _, rows in shapes)
    # 48 disks at 8 speeds would need a 2e8-row table without the cap.
    width = speed_setting._trailing_width(48, 7)
    table, starts = real(48, width)
    assert table.shape[1] <= speed_setting._BLOCK_ROWS < math.comb(48 + 7, 7)
    assert table.dtype == np.uint8 and len(starts) == 49

