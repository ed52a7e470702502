"""CR: how the speed-setting solve scales with array width and speed count.

Hibernator re-solves its tier configuration at every epoch boundary, so
the solver's cost at width is what decides whether the CR algorithm is
affordable on a wide array. The grid crosses disks {8, 16, 32, 48, 64,
96} with speed levels {2, 3, 5} and three goals: 5.5 ms (tight: at most
of these loads nothing slower than full speed meets it), 8 ms (the
benchmark's goal) and none (energy only, every loaded tier stable).

Heat is Zipf-0.9 over 100 extents per disk at the 48-disk OLTP
benchmark's load per disk (400 req/s over 48 disks), with its mean
request size (80% 4 KiB, 20% 8 KiB) and 60 s epochs.

The committed table holds only deterministic columns: the candidate
count C(N+K-1, K-1) an exhaustive search would score, the chosen
configuration and whether it met the goal. Solve times depend on the
machine, so they are printed, never written to ``results/cr.txt``.
"""

from __future__ import annotations

import math
import time

import numpy as np
from common import emit
from conftest import run_once

from repro.analysis.report import format_table
from repro.core.response_model import MG1ResponseModel
from repro.core.speed_setting import SpeedSettingConfig, solve_speed_assignment
from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import ultrastar_36z15

DISKS = [8, 16, 32, 48, 64, 96]
SPEED_LEVELS = [2, 3, 5]
GOALS_S = [0.0055, 0.008, None]
EXTENTS_PER_DISK = 100
RATE_PER_DISK = 400.0 / 48
MEAN_REQUEST_BYTES = 0.8 * 4096 + 0.2 * 8192
EPOCH_S = 60.0
REPEATS = 3


def zipf_heat(num_disks: int) -> np.ndarray:
    heat = 1.0 / np.arange(1, EXTENTS_PER_DISK * num_disks + 1) ** 0.9
    return heat / heat.sum() * (RATE_PER_DISK * num_disks)


def run_grid():
    rows = []
    for levels in SPEED_LEVELS:
        spec = ultrastar_36z15(levels)
        model = MG1ResponseModel(DiskMechanics(spec), mean_request_bytes=MEAN_REQUEST_BYTES)
        for num_disks in DISKS:
            heat = zipf_heat(num_disks)
            for goal in GOALS_S:
                times = []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    assignment = solve_speed_assignment(
                        heat, num_disks, model, spec, EPOCH_S, goal,
                        config=SpeedSettingConfig(),
                    )
                    times.append(time.perf_counter() - start)
                rows.append((num_disks, levels, goal, assignment, sorted(times)[REPEATS // 2]))
    return rows


def goal_label(goal: float | None) -> str:
    return "none" if goal is None else f"{goal * 1e3:g} ms"


def test_cr_scaling(benchmark):
    rows = run_once(benchmark, run_grid)
    print("CR solve time (median of 3, this machine):")
    for num_disks, levels, goal, _, seconds in rows:
        print(f"  {num_disks:3d} disks  {levels} speeds  goal {goal_label(goal):7s}  "
              f"{seconds * 1e3:9.2f} ms")
    emit("CR", format_table(
        ["disks", "speeds", "goal", "candidates", "configuration", "feasible"],
        [
            (num_disks, levels, goal_label(goal), math.comb(num_disks + levels - 1, levels - 1),
             assignment.describe(), "yes" if assignment.feasible else "no")
            for num_disks, levels, goal, assignment, _ in rows
        ],
        title="CR speed setting: Zipf-0.9 OLTP heat, 100 extents and 8.3 req/s per disk",
    ))
    for num_disks, _, goal, assignment, _ in rows:
        assert sum(assignment.counts) == num_disks
        # Without a goal the energy-only optimum exists at this load.
        if goal is None:
            assert assignment.feasible
