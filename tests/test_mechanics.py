"""Unit tests for the mechanical service-time model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks.mechanics import DiskMechanics
from repro.disks.specs import ultrastar_36z15


@pytest.fixture
def mech():
    return DiskMechanics(ultrastar_36z15())


def test_zero_distance_is_zero_seek(mech):
    assert mech.seek_time(0.0) == 0.0


def test_seek_monotone_in_distance(mech):
    ds = np.linspace(0.001, 1.0, 50)
    seeks = [mech.seek_time(float(d)) for d in ds]
    assert all(b >= a for a, b in zip(seeks, seeks[1:]))


def test_seek_bounds(mech):
    spec = mech.spec
    tiny = mech.seek_time(1e-9)
    assert tiny == pytest.approx(spec.min_seek_s, rel=0.01)
    assert mech.seek_time(1.0) == pytest.approx(mech.max_seek_s)


def test_seek_average_matches_datasheet(mech, rng):
    """Monte Carlo over random position pairs reproduces the sheet's
    average seek (the curve was calibrated for exactly this)."""
    a = rng.random(200_000)
    b = rng.random(200_000)
    seeks = np.array([mech.seek_time(float(d)) for d in np.abs(a - b)[:5000]])
    assert seeks.mean() == pytest.approx(mech.spec.avg_seek_s, rel=0.03)


def test_seek_out_of_range_raises(mech):
    with pytest.raises(ValueError):
        mech.seek_time(-0.1)
    with pytest.raises(ValueError):
        mech.seek_time(1.1)


def test_rotational_latency_expectation(mech):
    assert mech.rotational_latency(15000) == pytest.approx(0.002)
    assert mech.rotational_latency(3000) == pytest.approx(0.010)


def test_rotational_latency_sampled_within_rotation(mech, rng):
    rotation = mech.spec.rotation_s(6000)
    for _ in range(100):
        lat = mech.rotational_latency(6000, rng)
        assert 0.0 <= lat < rotation


def test_transfer_time_scales(mech):
    t_full = mech.transfer_time(1 << 20, 15000)
    t_slow = mech.transfer_time(1 << 20, 3000)
    assert t_slow == pytest.approx(5 * t_full)
    assert t_full == pytest.approx((1 << 20) / 55e6)


def test_transfer_negative_size_raises(mech):
    with pytest.raises(ValueError):
        mech.transfer_time(-1, 15000)


def test_service_time_composition(mech):
    """Deterministic service = seek + expected rotation + transfer."""
    s = mech.service_time(
        from_block=0, to_block=50, total_blocks=101, size_bytes=4096, rpm=15000
    )
    expected = mech.seek_time(0.5) + 0.002 + 4096 / 55e6
    assert s == pytest.approx(expected)


def test_service_requires_spinning(mech):
    with pytest.raises(ValueError):
        mech.service_time(0, 1, 10, 4096, rpm=0)


def test_service_slower_at_low_rpm(mech):
    fast = mech.service_time(0, 50, 101, 65536, 15000)
    slow = mech.service_time(0, 50, 101, 65536, 3000)
    assert slow > fast


def test_same_block_service_has_no_seek(mech):
    s = mech.service_time(10, 10, 101, 4096, 15000)
    assert s == pytest.approx(0.002 + 4096 / 55e6)


class TestMoments:
    def test_seek_moments_match_monte_carlo(self, mech, rng):
        a, b = rng.random(400_000), rng.random(400_000)
        d = np.abs(a - b)
        samples = mech.min_seek_s + (mech.max_seek_s - mech.min_seek_s) * np.sqrt(d)
        m = mech.seek_moments()
        assert m.mean == pytest.approx(samples.mean(), rel=0.01)
        assert m.second == pytest.approx(np.mean(samples**2), rel=0.01)

    def test_seek_probability_scales(self, mech):
        full = mech.seek_moments(1.0)
        half = mech.seek_moments(0.5)
        assert half.mean == pytest.approx(full.mean / 2)
        assert half.second == pytest.approx(full.second / 2)

    def test_seek_probability_validated(self, mech):
        with pytest.raises(ValueError):
            mech.seek_moments(1.5)

    def test_service_moments_match_monte_carlo(self, mech, rng):
        """E[S] and E[S^2] from the analytic path agree with sampling the
        actual service-time routine — the property the CR optimizer's
        correctness rests on."""
        rpm, size, n = 6000, 8192, 60_000
        blocks = rng.integers(0, 101, size=(n, 2))
        samples = np.empty(n)
        for i in range(n):
            samples[i] = mech.service_time(
                int(blocks[i, 0]), int(blocks[i, 1]), 101, size, rpm, rng.random()
            )
        m = mech.service_moments(rpm, size)
        assert m.mean == pytest.approx(samples.mean(), rel=0.02)
        assert m.second == pytest.approx(np.mean(samples**2), rel=0.03)

    def test_moments_require_spinning(self, mech):
        with pytest.raises(ValueError):
            mech.service_moments(0, 4096)

    def test_variance_nonnegative(self, mech):
        for rpm in mech.spec.rpm_levels:
            m = mech.service_moments(rpm, 4096)
            assert m.variance >= 0.0

    def test_mean_decreasing_in_rpm(self, mech):
        means = [mech.service_moments(r, 4096).mean for r in mech.spec.rpm_levels]
        assert means == sorted(means, reverse=True)
