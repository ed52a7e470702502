"""F10 [reconstructed]: scaling with array size.

The paper's scaling result: Hibernator's relative savings hold (or grow)
as the array widens, because the CR optimizer gets finer-grained control
over how many disks run at each speed. We scale the workload with the
array so per-disk load stays constant.
"""

from __future__ import annotations

from common import OLTP_EXTENTS, bench_hibernator_config, emit
from conftest import run_once

from repro.analysis.experiments import default_array_config, run_single
from repro.analysis.parallel import PolicySpec
from repro.analysis.report import format_series
from repro.policies.always_on import AlwaysOnPolicy
from repro.traces.oltp import OltpConfig, generate_oltp

SIZES = [4, 8, 16]
RATE_PER_DISK = 25.0


def run_sweep():
    points = []
    for num_disks in SIZES:
        trace = generate_oltp(OltpConfig(
            duration=1200.0,
            rate=RATE_PER_DISK * num_disks,
            num_extents=OLTP_EXTENTS,
            seed=83,
        ))
        config = default_array_config(num_disks=num_disks,
                                      num_extents=OLTP_EXTENTS, seed=84)
        base = run_single(trace, config, AlwaysOnPolicy())
        goal = 2.0 * base.mean_response_s
        policy, _ = PolicySpec.named("hibernator", config=bench_hibernator_config()).build(
            trace, config)
        result = run_single(trace, config, policy, goal_s=goal)
        points.append((num_disks, result.energy_savings_vs(base),
                       result.mean_response_s <= goal))
    return points


def test_f10_array_size(benchmark):
    points = run_once(benchmark, run_sweep)
    emit("F10", format_series(
        "OLTP (constant per-disk load): Hibernator savings vs array size",
        [(n, 100.0 * sav) for n, sav, _ in points],
        x_label="disks", y_label="savings %",
    ))
    savings = {n: sav for n, sav, _ in points}
    # Substantial savings at every size, goal met everywhere.
    assert all(sav > 0.3 for sav in savings.values())
    assert all(meets for _, _, meets in points)
    # Wider arrays give CR finer control: savings do not degrade.
    assert savings[16] >= savings[4] - 0.05