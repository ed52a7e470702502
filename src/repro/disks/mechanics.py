"""Mechanical service-time model for a multi-speed disk.

Service time of one physical op is ``seek + rotational latency +
transfer``:

* **Seek** depends only on arm travel distance, never on RPM. We use the
  standard square-root seek curve ``seek(d) = min_seek +
  (max_seek - min_seek) * sqrt(d)`` over the normalized travel distance
  ``d`` in [0, 1], with ``max_seek`` calibrated so the average over
  uniformly random request pairs matches the data-sheet average seek
  (for independent uniform positions, E[sqrt(d)] = 8/15).
* **Rotational latency** is uniform in one rotation period, which scales
  as 1/RPM — this is where low speeds hurt latency.
* **Transfer time** is ``size / rate`` with rate linear in RPM.

The same model is exposed in two forms: sampled (to serve simulated
requests) and analytic first/second moments (to feed the M/G/1
response-time predictor that Hibernator's CR optimizer uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.disks.specs import DiskSpec

# For two independent uniform positions on [0, 1], the distance D has
# density 2(1 - d); these are E[sqrt(D)], E[D] under that density.
_MEAN_SQRT_DIST = 8.0 / 15.0
_MEAN_DIST = 1.0 / 3.0


@dataclass(frozen=True)
class ServiceMoments:
    """First and second moments of the service-time distribution.

    These are exactly what the M/G/1 waiting-time formula needs:
    ``W = lambda * second / (2 * (1 - lambda * mean))``.
    """

    mean: float
    second: float

    @property
    def variance(self) -> float:
        return max(0.0, self.second - self.mean * self.mean)


class DiskMechanics:
    """Service-time sampling and moments for one :class:`DiskSpec`."""

    def __init__(self, spec: DiskSpec) -> None:
        self.spec = spec
        self.min_seek_s = spec.min_seek_s
        # Calibrate the curve so random-pair average equals the sheet value.
        self.max_seek_s = spec.min_seek_s + (spec.avg_seek_s - spec.min_seek_s) / _MEAN_SQRT_DIST
        self._seek_span = self.max_seek_s - self.min_seek_s
        # (rotation_s, transfer_bps) per rpm: both are pure functions of
        # the speed level and service_time needs them on every op.
        self._rpm_cache: dict[int, tuple[float, float]] = {}

    # -- sampled service --------------------------------------------------

    def seek_time(self, distance_fraction: float) -> float:
        """Seek time for a normalized arm travel distance in [0, 1]."""
        if distance_fraction < 0.0 or distance_fraction > 1.0:
            raise ValueError(f"distance fraction out of range: {distance_fraction!r}")
        if distance_fraction == 0.0:
            return 0.0
        return self.min_seek_s + self._seek_span * math.sqrt(distance_fraction)

    def rotational_latency(self, rpm: int, rng: np.random.Generator | None = None) -> float:
        """Rotational latency at ``rpm``: sampled if ``rng`` given, else
        the expectation (half a rotation)."""
        rotation = self.spec.rotation_s(rpm)
        if rng is None:
            return rotation / 2.0
        return float(rng.uniform(0.0, rotation))

    def transfer_time(self, size_bytes: int, rpm: int) -> float:
        """Media transfer time for ``size_bytes`` at ``rpm``."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        return size_bytes / self.spec.transfer_bps(rpm)

    def service_time(
        self,
        from_block: int,
        to_block: int,
        total_blocks: int,
        size_bytes: int,
        rpm: int,
        rotation_fraction: float | None = None,
    ) -> float:
        """Full service time of one op.

        Args:
            from_block: current head position (block index).
            to_block: target block index.
            total_blocks: number of addressable blocks on the disk.
            size_bytes: transfer size.
            rpm: current spindle speed (must be a spinning speed).
            rotation_fraction: a uniform draw in [0, 1) giving the
                rotational latency as that fraction of one rotation;
                None uses the expected latency (deterministic mode).
        """
        if rpm <= 0:
            raise ValueError("disk must be spinning to serve an op")
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        # Inlined seek_time/rotational_latency/transfer_time (same math,
        # same operation order): this runs once per physical op and the
        # three method hops plus per-call rotation/bps recomputation were
        # measurable. The standalone methods remain for analytic callers.
        span = total_blocks - 1
        if span < 1:
            span = 1
        distance = abs(to_block - from_block) / span
        if distance > 1.0:
            distance = 1.0
        seek = 0.0 if distance == 0.0 else self.min_seek_s + self._seek_span * math.sqrt(distance)
        cached = self._rpm_cache.get(rpm)
        if cached is None:
            cached = self._rpm_cache[rpm] = (self.spec.rotation_s(rpm), self.spec.transfer_bps(rpm))
        rotation_s, bps = cached
        # rotation_s * u is bit-identical to numpy's uniform(0.0, rotation_s),
        # which computes 0.0 + rotation_s * u from the same double u.
        rotation = rotation_s / 2.0 if rotation_fraction is None else rotation_s * rotation_fraction
        return seek + rotation + size_bytes / bps

    # -- analytic moments (for the CR optimizer) ---------------------------

    def seek_moments(self, seek_probability: float = 1.0) -> ServiceMoments:
        """Moments of the seek time under random placement.

        ``seek_probability`` is the fraction of ops that require a seek
        at all (sequential runs skip it).
        """
        if not 0.0 <= seek_probability <= 1.0:
            raise ValueError(f"seek probability out of range: {seek_probability!r}")
        m, c = self.min_seek_s, self._seek_span
        mean_if_seek = m + c * _MEAN_SQRT_DIST
        second_if_seek = m * m + 2.0 * m * c * _MEAN_SQRT_DIST + c * c * _MEAN_DIST
        return ServiceMoments(
            mean=seek_probability * mean_if_seek,
            second=seek_probability * second_if_seek,
        )

    def service_moments(
        self,
        rpm: int,
        mean_request_bytes: float,
        seek_probability: float = 1.0,
    ) -> ServiceMoments:
        """Moments of the full service time at ``rpm``.

        Seek, rotation and transfer are independent, so means add and
        variances add. Transfer is treated as deterministic at the mean
        request size (second-order effect for the workloads modelled).
        """
        if rpm <= 0:
            raise ValueError("moments are only defined for spinning speeds")
        seek = self.seek_moments(seek_probability)
        rotation = self.spec.rotation_s(rpm)
        rot_mean = rotation / 2.0
        rot_second = rotation * rotation / 3.0
        xfer = mean_request_bytes / self.spec.transfer_bps(rpm)
        mean = seek.mean + rot_mean + xfer
        variance = seek.variance + (rot_second - rot_mean * rot_mean)
        return ServiceMoments(mean=mean, second=variance + mean * mean)
