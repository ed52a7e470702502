"""F7 [reconstructed]: effect of the number of disk speed levels.

The hardware design question the paper asks of multi-speed disks: how
many RPM levels are worth building? One level (a conventional disk)
gives Hibernator nothing to work with; two levels capture a large share
of the benefit; more levels add diminishing returns (S6).
"""

from __future__ import annotations

from common import bench_array_config, bench_hibernator_config, bench_oltp_trace, emit
from conftest import run_once

from repro.analysis.experiments import run_single
from repro.analysis.parallel import PolicySpec
from repro.analysis.report import format_series
from repro.policies.always_on import AlwaysOnPolicy

LEVELS = [1, 2, 3, 5]


def run_sweep():
    trace = bench_oltp_trace()
    points = []
    for levels in LEVELS:
        config = bench_array_config(num_speed_levels=levels)
        base = run_single(trace, config, AlwaysOnPolicy())
        goal = 2.0 * base.mean_response_s
        policy, _ = PolicySpec.named("hibernator", config=bench_hibernator_config()).build(
            trace, config)
        result = run_single(trace, config, policy, goal_s=goal)
        points.append((levels, result.energy_savings_vs(base),
                       result.mean_response_s <= goal))
    return points


def test_f7_speed_levels(benchmark):
    points = run_once(benchmark, run_sweep)
    emit("F7", format_series(
        "OLTP: Hibernator savings vs number of speed levels",
        [(lv, 100.0 * sav) for lv, sav, _ in points],
        x_label="speed levels", y_label="savings %",
    ))
    savings = {lv: sav for lv, sav, _ in points}
    # One level = conventional single-speed disks: nothing to exploit.
    assert abs(savings[1]) < 0.05
    # Two levels already unlock a large share of the benefit.
    assert savings[2] > 0.2
    # More levels keep helping, with diminishing returns (S6).
    assert savings[3] >= savings[2] - 0.02
    assert savings[5] >= savings[3] - 0.02
    gain_1_to_2 = savings[2] - savings[1]
    gain_3_to_5 = savings[5] - savings[3]
    assert gain_1_to_2 > gain_3_to_5
    # The goal holds at every level count.
    assert all(meets for _, _, meets in points)
