"""Unit tests for TPM and the idle spin-down machinery."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import default_array_config
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, run_spec
from repro.disks.disk import DiskState, MultiSpeedDisk
from repro.disks.specs import ultrastar_36z15
from repro.perf.digest import result_digest
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.tpm import IdleSpindownManager, TpmConfig, TpmPolicy, breakeven_seconds
from repro.sim.request import DiskOp, IoKind
from repro.sim.runner import ArraySimulation
from repro.traces.synthetic import SyntheticConfig
from tests.conftest import make_trace


def test_breakeven_formula():
    spec = ultrastar_36z15()
    t = breakeven_seconds(spec)
    saved = (spec.idle_watts(15000) - spec.standby_watts) * t
    assert saved == pytest.approx(spec.spinup_joules + spec.spindown_joules)


def test_breakeven_at_low_speed_longer():
    spec = ultrastar_36z15()
    assert breakeven_seconds(spec, 3000) > breakeven_seconds(spec, 15000)


def test_breakeven_rejects_pointless_standby():
    spec = ultrastar_36z15()
    cheap = type(spec)(**{**spec.__dict__, "standby_watts": 20.0})
    with pytest.raises(ValueError):
        breakeven_seconds(cheap)


class TestIdleSpindownManager:
    def make_disk(self, engine):
        return MultiSpeedDisk(engine, ultrastar_36z15(), total_blocks=100, rng=None)

    def test_spins_down_after_threshold(self, engine):
        disk = self.make_disk(engine)
        manager = IdleSpindownManager(engine, threshold_s=5.0)
        manager.manage(disk)  # idle now -> timer armed immediately
        engine.run()
        assert disk.state is DiskState.STANDBY
        assert engine.now >= 5.0

    def test_activity_cancels_timer(self, engine):
        disk = self.make_disk(engine)
        manager = IdleSpindownManager(engine, threshold_s=5.0)
        manager.manage(disk)
        op = DiskOp(request=None, kind=IoKind.READ, disk_index=0, block=1, size=4096)
        engine.schedule(4.0, disk.submit, op)
        engine.run(until=4.5)
        assert disk.state is not DiskState.STANDBY
        engine.run()
        # Timer re-armed after the op drained; eventually spins down.
        assert disk.state is DiskState.STANDBY

    def test_threshold_validation(self, engine):
        with pytest.raises(ValueError):
            IdleSpindownManager(engine, threshold_s=0.0)


class TestTpmPolicy:
    def test_no_savings_on_dense_load(self, small_config):
        trace = make_trace([i * 0.05 for i in range(400)])  # 20s dense
        base = ArraySimulation(trace, small_config, AlwaysOnPolicy()).run()
        tpm = ArraySimulation(trace, small_config, TpmPolicy()).run()
        assert tpm.energy_joules == pytest.approx(base.energy_joules, rel=0.01)
        assert tpm.spinups == 0

    def test_saves_across_long_gap(self, small_config):
        """One burst, a gap far beyond break-even, another burst: TPM must
        park the disks during the gap and save real energy."""
        threshold = 10.0
        gap_trace = make_trace(
            [0.0, 0.1, 0.2, 0.3] + [500.0, 500.1, 500.2, 500.3],
            extents=[0, 1, 2, 3, 0, 1, 2, 3],
        )
        base = ArraySimulation(gap_trace, small_config, AlwaysOnPolicy()).run()
        tpm = ArraySimulation(
            gap_trace, small_config, TpmPolicy(TpmConfig(threshold_s=threshold))
        ).run()
        assert tpm.spinups == 4
        assert tpm.energy_joules < 0.55 * base.energy_joules

    def test_wakeup_pays_latency(self, small_config):
        gap_trace = make_trace([0.0, 500.0], extents=[0, 0])
        tpm = ArraySimulation(
            gap_trace, small_config, TpmPolicy(TpmConfig(threshold_s=10.0))
        ).run()
        spinup_s, _ = small_config.spec.transition_cost(0, 15000)
        assert tpm.max_response_s >= spinup_s

    def test_default_threshold_is_breakeven(self, small_config):
        trace = make_trace([0.0])
        policy = TpmPolicy()
        ArraySimulation(trace, small_config, policy).run()
        assert policy.threshold_s == pytest.approx(breakeven_seconds(small_config.spec))

    def test_threshold_multiple(self, small_config):
        trace = make_trace([0.0])
        policy = TpmPolicy(TpmConfig(threshold_multiple=2.0))
        ArraySimulation(trace, small_config, policy).run()
        assert policy.threshold_s == pytest.approx(2 * breakeven_seconds(small_config.spec))

    def test_describe(self, small_config):
        policy = TpmPolicy(TpmConfig(threshold_s=30.0))
        ArraySimulation(make_trace([0.0]), small_config, policy).run()
        assert "30.0" in policy.describe()


#: Runtime-stripped result digests of the idle spin-down manager's three
#: users on a sparse trace where its timers fire: TPM with a short
#: threshold (350 spin-ups), PDC with a one-minute period (6) and MAID
#: (50). The golden scenarios never fire an idle timer.
_PINNED_IDLE_SPINDOWNS = {
    "tpm": ("cd72c32c8fa3ddce14183e479d7df1ad471840b4b98abd64fba880a498933c3f",
            {"threshold_s": 0.5}),
    "pdc": ("d2a09803a34ac8a2840f61fb26c3aa52874ba4361264b423042c4999810f54e1",
            {"period_s": 60}),
    "maid": ("b84d8a1c23e0c5dbe9b7a9d7a0175e0532938bda07c8babde70567ecdc2e1895", {}),
}


@pytest.mark.parametrize("policy", sorted(_PINNED_IDLE_SPINDOWNS))
def test_idle_spindown_digests_are_pinned(policy):
    digest, params = _PINNED_IDLE_SPINDOWNS[policy]
    result = run_spec(RunSpec(
        trace=TraceSpec.from_generator("synthetic", SyntheticConfig(
            duration=600, rate=5, num_extents=800, seed=3)),
        array=default_array_config(num_disks=8, num_extents=800),
        policy=PolicySpec.named(policy, **params),
    ))
    assert result.spinups > 0
    assert result_digest(result) == digest
