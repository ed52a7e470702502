"""F5 [reconstructed]: Hibernator's energy savings vs the response-time
goal.

The paper's sensitivity sweep: the looser the operator's response-time
limit (slack over the full-speed baseline), the more disks CR can run
slow and the more energy Hibernator saves; with no slack it degenerates
to ≈Base. Savings must grow monotonically with slack (S3).
"""

from __future__ import annotations

from common import (
    bench_array_config,
    bench_hibernator_config,
    bench_oltp_trace,
    emit,
)
from conftest import run_once

from repro.analysis.experiments import run_single
from repro.analysis.parallel import PolicySpec
from repro.analysis.report import format_series
from repro.policies.always_on import AlwaysOnPolicy

SLACKS = [1.05, 1.25, 1.5, 2.0, 3.0, 4.0]


def run_sweep():
    trace = bench_oltp_trace()
    config = bench_array_config()
    base = run_single(trace, config, AlwaysOnPolicy())
    points = []
    for slack in SLACKS:
        goal = slack * base.mean_response_s
        policy, _ = PolicySpec.named("hibernator", config=bench_hibernator_config()).build(
            trace, config)
        result = run_single(trace, config, policy, goal_s=goal)
        savings = result.energy_savings_vs(base)
        meets = result.mean_response_s <= goal
        points.append((slack, savings, meets))
    return points


def test_f5_goal_sensitivity(benchmark):
    points = run_once(benchmark, run_sweep)
    text = format_series(
        "OLTP: Hibernator energy savings vs response-time slack",
        [(s, 100.0 * sav) for s, sav, _ in points],
        x_label="slack (x base RT)", y_label="savings %",
    )
    emit("F5", text)
    savings = [sav for _, sav, _ in points]
    # S3: monotone non-decreasing in slack (tiny numerical wiggle allowed).
    for a, b in zip(savings, savings[1:]):
        assert b >= a - 0.02
    # Tight goal -> nearly Base; loose goal -> large savings.
    assert savings[0] < 0.25
    assert savings[-1] > 0.45
    assert savings[-1] > savings[0] + 0.2
    # The goal is met at every point.
    assert all(meets for _, _, meets in points)
