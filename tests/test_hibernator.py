"""Integration-level tests for the Hibernator policy."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.experiments import default_array_config
from repro.core.guarantee import GuaranteeConfig
from repro.core.hibernator import HibernatorConfig, HibernatorPolicy
from repro.faults.plan import DiskFailure, FaultPlan
from repro.policies.always_on import AlwaysOnPolicy
from repro.sim.runner import ArraySimulation
from repro.traces.oltp import OltpConfig, generate_oltp
from repro.traces.tracestats import per_extent_rates
from tests.conftest import make_trace, poisson_trace


def run_hibernator(trace, config, hib_config=None, goal=None, prime=True):
    hib_config = hib_config or HibernatorConfig(epoch_seconds=100.0)
    if prime and hib_config.prime_rates is None:
        hib_config = dataclasses.replace(hib_config, prime_rates=per_extent_rates(trace))
    policy = HibernatorPolicy(hib_config)
    sim = ArraySimulation(trace, config, policy, goal_s=goal)
    return sim, policy, sim.run()


def test_config_validation():
    with pytest.raises(ValueError):
        HibernatorConfig(epoch_seconds=0.0)
    with pytest.raises(ValueError):
        HibernatorConfig(migration="teleport")


def test_saves_energy_within_goal(small_config):
    """The headline property on a light steady workload: large savings,
    goal met."""
    trace = poisson_trace(rate=30.0, duration=600.0, seed=20)
    base = ArraySimulation(trace, small_config, AlwaysOnPolicy()).run()
    goal = 2.0 * base.mean_response_s
    _, policy, result = run_hibernator(trace, small_config, goal=goal)
    assert result.mean_response_s <= goal
    assert result.energy_joules < 0.7 * base.energy_joules


def test_observation_epoch_runs_full_speed(small_config):
    """Without priming, the first epoch is full-speed observation."""
    trace = poisson_trace(rate=30.0, duration=250.0, seed=21)
    hib_config = HibernatorConfig(epoch_seconds=100.0)
    policy = HibernatorPolicy(hib_config)
    sim = ArraySimulation(trace, small_config, policy, goal_s=0.05, window_s=50.0)
    result = sim.run()
    # First sample is at t=0 (full speed); later samples should show the
    # CR configuration (slower on this light load).
    first = result.speed_samples[0]
    later = result.speed_samples[-1]
    assert first[1] == small_config.spec.max_rpm
    assert later[1] < first[1]


def test_primed_start_applies_configuration_instantly(small_config):
    trace = poisson_trace(rate=20.0, duration=150.0, seed=22)
    sim, policy, result = run_hibernator(trace, small_config, goal=0.05)
    assert policy.epochs[0].time == 0.0
    # No spin transitions were charged for the instant start.
    assert result.speed_changes == 0 or policy.epochs[0].configuration != ""


def test_epoch_records_accumulate(small_config):
    trace = poisson_trace(rate=20.0, duration=450.0, seed=23)
    sim, policy, result = run_hibernator(
        trace, small_config,
        HibernatorConfig(epoch_seconds=100.0), goal=0.05,
    )
    assert len(policy.epochs) >= 4
    assert result.extras["epochs"] == len(policy.epochs)
    for record in policy.epochs:
        assert record.predicted_energy_joules > 0
        assert record.configuration


def drift_trace():
    """100 s with extents 0-9 hot, then 500 s with extents 70-79 hot.

    The drift strands the hot set on whatever slow tier the initial
    configuration parked extents 70-79 on — a sustained, non-saturating
    goal violation, which is exactly the regime the boost guarantee is
    designed for.
    """
    import numpy as np

    from repro.traces.model import trace_from_columns
    from repro.traces.synthetic import interleave_traces

    def phase(start, dur, hot_lo, seed):
        rng = np.random.default_rng(seed)
        n_hot, n_cold = int(36.0 * dur), int(3.5 * dur)
        t = np.sort(rng.uniform(start, start + dur, n_hot + n_cold))
        ext = np.concatenate([
            rng.integers(hot_lo, hot_lo + 10, n_hot),
            rng.integers(0, 80, n_cold),
        ])
        rng.shuffle(ext)
        return trace_from_columns("ph", 80, t, np.ones(len(t), bool),
                                  ext[: len(t)], np.full(len(t), 4096))

    return interleave_traces("drift", [phase(0, 100, 0, 1), phase(100, 500, 70, 2)])


def drift_prime():
    prime = np.full(80, 3.5 / 80)
    prime[:10] += 3.6
    return prime


@pytest.mark.parametrize("goal_ms", [8.0, 9.0, 10.0])
def test_boost_holds_average_under_drift(small_config, goal_ms):
    """The guarantee's absolute claim: when the working set drifts onto a
    slow tier mid-epoch (sustained non-saturating violation), the boost
    must hold the cumulative average near the goal. The entry threshold
    and the transition spike allow a small bounded overshoot."""
    trace = drift_trace()
    goal = goal_ms / 1e3
    hib_config = HibernatorConfig(
        epoch_seconds=10_000.0,  # CR never corrects within the run
        prime_rates=drift_prime(),
        guarantee=GuaranteeConfig(enter_threshold_requests=25.0),
    )
    policy = HibernatorPolicy(hib_config)
    result = ArraySimulation(trace, small_config, policy, goal_s=goal).run()
    assert policy.boost is not None
    assert policy.boost.boosts_entered >= 1
    bound = goal * 1.1 + 25.0 * goal / result.num_requests
    assert result.mean_response_s <= bound


def test_boost_exits_at_boundary_and_resumes_saving(small_config):
    """With real epochs, the boost exits once credit is restored and CR
    re-tiers for the *new* hot set — energy ends below the never-correct
    (epoch=forever) run."""
    trace = drift_trace()
    goal = 9.0 / 1e3

    def run_with(epoch_s):
        config = HibernatorConfig(
            epoch_seconds=epoch_s,
            prime_rates=drift_prime(),
            guarantee=GuaranteeConfig(enter_threshold_requests=25.0),
        )
        policy = HibernatorPolicy(config)
        result = ArraySimulation(trace, small_config, policy, goal_s=goal).run()
        return policy, result

    stuck_policy, stuck = run_with(10_000.0)
    live_policy, live = run_with(100.0)
    assert live_policy.boost.boost_seconds < stuck_policy.boost.boost_seconds
    assert live.energy_joules < stuck.energy_joules
    assert live.mean_response_s <= goal * 1.1 + 25.0 * goal / live.num_requests


def surge_trace():
    """Quiet load that lets CR pick a slow configuration, then a surge
    far above the slow configuration's capacity, then a quiet tail."""
    quiet = [i * 0.1 for i in range(1000)]                 # 10/s for 100s
    surge = [100.0 + i / 600.0 for i in range(24000)]      # 600/s for 40s
    tail = [140.0 + i * 0.1 for i in range(4000)]          # 10/s for 400s
    return make_trace(sorted(quiet + surge + tail),
                      extents=[i % 80 for i in range(29000)])


def test_no_guarantee_ablation_surge(small_config):
    """S5 on an overload surge: the boost cannot retroactively erase the
    backlog (the deficit amortizes only over paper-length traces), but
    it must make recovery far faster — without it the run ends much
    worse on both mean response and final deficit."""
    trace = surge_trace()
    base = ArraySimulation(trace, small_config, AlwaysOnPolicy()).run()
    goal = 2.0 * base.mean_response_s

    def run_with(enabled):
        _, policy, result = run_hibernator(
            trace, small_config,
            HibernatorConfig(epoch_seconds=100.0,
                             guarantee=GuaranteeConfig(enabled=enabled,
                                                       exit_credit_requests=50.0)),
            goal=goal,
        )
        return policy, result

    boost_policy, with_boost = run_with(True)
    _, without = run_with(False)
    assert boost_policy.boost.boosts_entered >= 1
    assert without.mean_response_s > goal
    assert with_boost.mean_response_s < 0.7 * without.mean_response_s


def test_migration_none_never_moves(small_config):
    trace = poisson_trace(rate=30.0, duration=300.0, zipf_theta=1.2, seed=24)
    _, _, result = run_hibernator(
        trace, small_config,
        HibernatorConfig(epoch_seconds=100.0, migration="none"), goal=0.05,
    )
    assert result.migration_extents == 0


def test_migration_shuffle_moves_less_than_sorted(small_config):
    """S4 at the system level: same run, shuffle vs sorted migration."""
    trace = poisson_trace(rate=30.0, duration=500.0, zipf_theta=1.2, seed=25)

    def moved(scheme):
        _, _, result = run_hibernator(
            trace, small_config,
            HibernatorConfig(epoch_seconds=100.0, migration=scheme), goal=0.05,
        )
        return result.migration_extents

    assert moved("shuffle") <= moved("sorted")


def test_short_epochs_restart_migration_mid_copy():
    """With 5 s epochs on a 16-disk array, a boundary re-plans migration
    while copies of the last plan are still in flight. The run must
    finish with every request served."""
    from repro.analysis.experiments import default_array_config
    from repro.traces.oltp import OltpConfig, generate_oltp

    trace = generate_oltp(OltpConfig(duration=40.0, rate=200.0, num_extents=1600, seed=71))
    config = default_array_config(num_disks=16, num_extents=1600)
    _, policy, result = run_hibernator(
        trace, config, HibernatorConfig(epoch_seconds=5.0), goal=0.008,
    )
    assert result.num_requests == len(trace)
    assert result.failed_requests == 0
    assert len(policy.epochs) > 2 and result.migration_extents > 0


def test_deterministic_runs(small_config):
    trace = poisson_trace(rate=25.0, duration=300.0, seed=26)

    def run_once():
        _, _, result = run_hibernator(
            trace, small_config, HibernatorConfig(epoch_seconds=100.0), goal=0.05
        )
        return (result.energy_joules, result.mean_response_s, result.migration_extents)

    assert run_once() == run_once()


def test_policy_reusable_across_runs(small_config):
    """attach() must fully reset per-run state."""
    trace = poisson_trace(rate=25.0, duration=200.0, seed=27)
    config = HibernatorConfig(epoch_seconds=100.0, prime_rates=per_extent_rates(trace))
    policy = HibernatorPolicy(config)
    r1 = ArraySimulation(trace, small_config, policy, goal_s=0.05).run()
    r2 = ArraySimulation(trace, small_config, policy, goal_s=0.05).run()
    assert r1.energy_joules == pytest.approx(r2.energy_joules)
    assert r1.num_requests == r2.num_requests


def test_runs_without_goal(small_config):
    """goal=None: pure energy minimization with stability, no boost."""
    trace = poisson_trace(rate=20.0, duration=200.0, seed=28)
    _, policy, result = run_hibernator(trace, small_config, goal=None)
    assert policy.boost is None
    assert "boosts" not in result.extras
    assert result.energy_joules > 0


def test_failed_requests_earn_no_boost_credit():
    """A request lost with a non-RAID disk has no latency, so the deficit
    the boost acts on covers exactly the served requests. Each failure
    used to feed the boost its failure-time latency, about one goal of
    credit that was never earned."""
    trace = generate_oltp(OltpConfig(duration=120.0, rate=200.0, num_extents=800))
    faults = FaultPlan(disk_failures=(DiskFailure(time_s=20.0, disk=3),), rebuild=False)
    sim = ArraySimulation(
        trace, default_array_config(num_disks=8, num_extents=800),
        HibernatorPolicy(HibernatorConfig()), goal_s=0.008, faults=faults,
    )
    result = sim.run()
    assert result.failed_requests > 0
    assert result.num_requests + result.failed_requests == len(trace)
    assert result.extras["final_deficit_s"] == pytest.approx(
        (result.mean_response_s - result.goal_s) * result.num_requests
    )


def test_goal_changes_rebind_boost_to_the_runs_deficit(small_config):
    """Tighten the goal, clear it, set it again: after each change the
    boost reads the simulation's own tracker, never a private copy."""
    trace = poisson_trace(rate=20.0, duration=400.0, seed=29)
    policy = HibernatorPolicy(HibernatorConfig(epoch_seconds=100.0))
    sim = ArraySimulation(trace, small_config, policy, goal_s=0.05)
    sim.begin()
    assert policy.boost.tracker is sim.deficit
    sim.step(until=100.0)

    first = sim.deficit
    sim.set_goal(0.02)
    assert sim.deficit is not first and sim.deficit.n == 0
    assert policy.boost.tracker is sim.deficit
    sim.step(until=200.0)
    assert sim.deficit.n > 0
    assert policy.extras()["final_deficit_s"] == sim.deficit.deficit

    sim.set_goal(None)
    assert sim.deficit is None and policy.boost is None
    sim.step(until=300.0)

    sim.set_goal(0.03)
    assert policy.boost.tracker is sim.deficit
    assert policy.boost.goal_s == 0.03
    sim.step()
    result = sim.finalize()
    assert sim.deficit.n > 0
    assert result.extras["final_deficit_s"] == sim.deficit.deficit
    assert result.cumulative_avg_vs_goal == pytest.approx(sim.deficit.deficit / sim.deficit.n)


def test_describe_mentions_settings():
    policy = HibernatorPolicy(HibernatorConfig(epoch_seconds=120.0, migration="sorted"))
    desc = policy.describe()
    assert "120" in desc and "sorted" in desc
