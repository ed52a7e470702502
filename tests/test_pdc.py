"""Unit tests for the PDC baseline."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.policies.pdc import PdcConfig, PdcPolicy
from repro.sim.runner import ArraySimulation
from tests.conftest import poisson_trace


def test_config_validation():
    with pytest.raises(ValueError):
        PdcConfig(period_s=0.0)
    with pytest.raises(ValueError):
        PdcConfig(fill_fraction=0.0)


def test_concentrates_popular_data(small_config):
    """After a couple of periods, the hottest extents must sit on the
    leading disks."""
    trace = poisson_trace(rate=40.0, duration=400.0, zipf_theta=1.3, seed=9)
    policy = PdcPolicy(PdcConfig(period_s=100.0, max_moves_per_period=200))
    sim = ArraySimulation(trace, small_config, policy)
    result = sim.run()
    assert result.extras["pdc_periods"] >= 3
    counts = np.bincount(trace.extents, minlength=80)
    hottest = np.argsort(-counts)[:10]
    leading = sum(1 for e in hottest if sim.array.extent_map.disk_of(int(e)) == 0)
    assert leading >= 7


def test_load_becomes_skewed_across_disks(small_config):
    trace = poisson_trace(rate=40.0, duration=400.0, zipf_theta=1.3, seed=9)
    policy = PdcPolicy(PdcConfig(period_s=100.0, max_moves_per_period=200))
    sim = ArraySimulation(trace, small_config, policy)
    sim.run()
    ops = [d.ops_completed for d in sim.array.disks]
    # Disk 0 absorbs far more traffic than the tail disk after
    # concentration (the PDC failure mode under load).
    assert ops[0] > 1.5 * min(ops)


def test_respects_move_cap(small_config):
    trace = poisson_trace(rate=40.0, duration=250.0, zipf_theta=1.2, seed=10)
    policy = PdcPolicy(PdcConfig(period_s=100.0, max_moves_per_period=5))
    sim = ArraySimulation(trace, small_config, policy)
    result = sim.run()
    assert result.migration_extents <= 5 * max(result.extras["pdc_periods"], 1)


def test_migration_energy_accounted(small_config):
    trace = poisson_trace(rate=40.0, duration=250.0, zipf_theta=1.2, seed=10)
    policy = PdcPolicy(PdcConfig(period_s=100.0, max_moves_per_period=50))
    result = ArraySimulation(trace, small_config, policy).run()
    assert result.migration_extents > 0
    assert result.migration_bytes == result.migration_extents * small_config.extent_bytes


def test_spins_down_idle_tail(small_config):
    """With unbound capacity and everything concentrated, tail disks
    should be asleep by the end of the run."""
    config = dataclasses.replace(small_config, slots_override=80)
    trace = poisson_trace(rate=15.0, duration=600.0, num_extents=80,
                          zipf_theta=2.5, seed=11)
    policy = PdcPolicy(PdcConfig(period_s=100.0, max_moves_per_period=200,
                                 spindown_threshold_s=30.0))
    sim = ArraySimulation(trace, config, policy)
    sim.run()
    assert min(sim.array.speeds()) == 0
    # Concentration actually happened: the lead disk dominates.
    occupancy = sim.array.extent_map.occupancy()
    assert occupancy[0] > 40


def test_extras_and_describe(small_config):
    trace = poisson_trace(rate=10.0, duration=150.0, seed=12)
    policy = PdcPolicy(PdcConfig(period_s=100.0))
    result = ArraySimulation(trace, small_config, policy).run()
    assert result.extras["pdc_periods"] >= 1
    assert "PDC" in policy.describe()
