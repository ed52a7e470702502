"""A2 [ablation]: coarse-grained (CR) vs fine-grained (DRPM-style) speed
setting.

DESIGN.md's granularity question: both exploit multi-speed disks, but
CR plans a whole epoch against a queueing model and a goal, while DRPM
reacts per-window per-disk with no goal. On OLTP the reactive scheme
serves a large share of requests at the wrong speed (it only ramps up
*after* queues build), blowing the goal; CR meets it.
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
from repro.analysis.report import format_table
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.drpm import DrpmConfig, DrpmPolicy


def run_all():
    trace = bench_oltp_trace()
    config = bench_array_config()
    base = run_single(trace, config, AlwaysOnPolicy())
    goal = 2.0 * base.mean_response_s
    hibernator, _ = PolicySpec.named("hibernator", config=bench_hibernator_config()).build(
        trace, config)
    results = {
        "Hibernator (coarse/CR)": run_single(trace, config, hibernator, goal_s=goal),
        "DRPM (fine/reactive)": run_single(
            trace, config, DrpmPolicy(DrpmConfig()), goal_s=goal
        ),
    }
    return base, goal, results


def test_a2_granularity(benchmark):
    base, goal, results = run_once(benchmark, run_all)
    rows = [
        [
            name,
            f"{100.0 * result.energy_savings_vs(base):.1f} %",
            f"{result.mean_response_s * 1e3:.2f}",
            f"{result.speed_changes}",
            "yes" if result.mean_response_s <= goal else "NO",
        ]
        for name, result in results.items()
    ]
    emit("A2", format_table(
        ["speed setting", "savings", "mean RT ms", "speed changes", "meets goal"],
        rows,
        title=f"OLTP: coarse vs fine-grained speed control (goal {goal * 1e3:.2f} ms)",
    ))
    coarse = results["Hibernator (coarse/CR)"]
    fine = results["DRPM (fine/reactive)"]
    # Coarse-grained meets the goal; reactive does not.
    assert coarse.mean_response_s <= goal
    assert fine.mean_response_s > goal
    # Both save real energy (the disks are the same hardware).
    assert coarse.energy_savings_vs(base) > 0.25
    assert fine.energy_savings_vs(base) > 0.25
    # Fine-grained control changes speeds far more often.
    assert fine.speed_changes > 4 * max(coarse.speed_changes, 1)