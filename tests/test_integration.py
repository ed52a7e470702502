"""End-to-end shape tests: scaled-down versions of the paper's headline
comparisons (the full-size versions live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import default_array_config, run_comparison, run_single
from repro.analysis.parallel import PolicySpec
from repro.core.hibernator import HibernatorConfig
from repro.policies.always_on import AlwaysOnPolicy
from repro.traces.oltp import OltpConfig, generate_oltp


@pytest.fixture(scope="module")
def oltp_comparison():
    """One shared scaled-down OLTP comparison (6 schemes, ~1 minute)."""
    trace = generate_oltp(OltpConfig(duration=900.0, rate=150.0,
                                     num_extents=480, seed=51))
    config = default_array_config(num_disks=8, num_extents=480, seed=5)
    return run_comparison(
        trace, config, slack=2.0,
        hibernator_config=HibernatorConfig(epoch_seconds=300.0),
    )


def test_s1_tpm_saves_nothing_on_oltp(oltp_comparison):
    """S1: steady OLTP leaves no idle gaps beyond break-even."""
    assert abs(oltp_comparison.savings("TPM")) < 0.05
    assert oltp_comparison.results["TPM"].spinups == 0


def test_s1_hibernator_saves_substantially(oltp_comparison):
    """S1: Hibernator achieves tens of percent savings on the same trace."""
    assert oltp_comparison.savings("Hibernator") > 0.25


def test_s2_hibernator_meets_goal(oltp_comparison):
    result = oltp_comparison.results["Hibernator"]
    assert result.mean_response_s <= oltp_comparison.goal_s


def test_s2_hibernator_best_among_goal_meeting_schemes(oltp_comparison):
    """Among schemes that respect the goal, Hibernator saves the most."""
    goal = oltp_comparison.goal_s
    best_other = max(
        oltp_comparison.savings(name)
        for name, result in oltp_comparison.results.items()
        if name != "Hibernator" and result.mean_response_s <= goal
    )
    assert oltp_comparison.savings("Hibernator") > best_other


def test_s2_drpm_tradeoff(oltp_comparison):
    """DRPM saves energy but has no goal awareness: its response time is
    the worst of all schemes."""
    drpm = oltp_comparison.results["DRPM"]
    assert oltp_comparison.savings("DRPM") > 0.0
    worst = max(r.mean_response_s for r in oltp_comparison.results.values())
    assert drpm.mean_response_s == worst


def test_base_is_fastest(oltp_comparison):
    base_rt = oltp_comparison.results["Base"].mean_response_s
    assert all(base_rt <= r.mean_response_s * 1.001
               for r in oltp_comparison.results.values())


def test_energy_accounting_consistent(oltp_comparison):
    """Breakdown totals match the headline energy for every scheme."""
    for result in oltp_comparison.results.values():
        assert result.breakdown.total_joules == pytest.approx(
            result.energy_joules, rel=1e-9
        )


def test_migration_only_for_migrating_schemes(oltp_comparison):
    assert oltp_comparison.results["Base"].migration_extents == 0
    assert oltp_comparison.results["TPM"].migration_extents == 0
    assert oltp_comparison.results["DRPM"].migration_extents == 0


# -- S3 and S6: the F5 and F7 sweeps at test scale ---------------------------


@pytest.fixture(scope="module")
def short_oltp():
    return generate_oltp(OltpConfig(duration=600.0, rate=100.0,
                                    num_extents=400, seed=51))


def _hibernator_vs_base(trace, levels: int, slacks) -> list[tuple[float, bool]]:
    """Hibernator's savings over Base on 8 disks with ``levels`` speeds,
    and whether it met the goal, for a goal of each slack x Base's mean
    response."""
    config = default_array_config(num_disks=8, num_extents=400, num_speed_levels=levels)
    base = run_single(trace, config, AlwaysOnPolicy())
    points = []
    for slack in slacks:
        goal = slack * base.mean_response_s
        policy, hib_config = PolicySpec.named("hibernator", epoch_seconds=200.0).build(
            trace, config)
        result = run_single(trace, hib_config, policy, goal_s=goal)
        points.append((result.energy_savings_vs(base), result.mean_response_s <= goal))
    return points


def test_s3_savings_grow_with_slack(short_oltp):
    """S3 (F5): the looser the goal, the more Hibernator saves; with
    almost no slack it stays at Base."""
    points = _hibernator_vs_base(short_oltp, 5, (1.05, 1.5, 2.0, 3.0))
    savings = [sav for sav, _ in points]
    for a, b in zip(savings, savings[1:]):
        assert b >= a - 0.02
    assert savings[0] < 0.25
    assert savings[-1] > 0.45
    assert savings[-1] > savings[0] + 0.2
    assert all(meets for _, meets in points)


def test_s6_more_speed_levels_with_diminishing_returns(short_oltp):
    """S6 (F7): one speed level gives Hibernator nothing, two unlock most
    of the benefit, and further levels add less."""
    points = {levels: _hibernator_vs_base(short_oltp, levels, (2.0,))[0]
              for levels in (1, 2, 3, 5)}
    savings = {levels: sav for levels, (sav, _) in points.items()}
    assert abs(savings[1]) < 0.05
    assert savings[2] > 0.2
    assert savings[3] >= savings[2] - 0.02
    assert savings[5] >= savings[3] - 0.02
    assert savings[2] - savings[1] > savings[5] - savings[3]
    assert all(meets for _, meets in points.values())
