"""The CR solver's exhaustive depth-first search, kept as a test oracle.

This is ``solve_speed_assignment`` as it stood before the vectorized
boundary search replaced it: a branch-and-bound walk over every
non-decreasing boundary vector in lexicographic order, keeping the first
strict minimum. The production solver must return exactly the same
``SpeedAssignment`` -- boundaries, predictions and float totals -- for
every input (``tests/test_speed_setting.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.response_model import MG1ResponseModel, TierPrediction
from repro.core.speed_setting import (
    SpeedAssignment,
    SpeedSettingConfig,
    _extent_boundaries,
)
from repro.disks.specs import DiskSpec


def reference_solve_speed_assignment(
    heat: np.ndarray,
    num_disks: int,
    model: MG1ResponseModel,
    spec: DiskSpec,
    epoch_seconds: float,
    goal_s: float | None,
    prev_boundaries: tuple[int, ...] | None = None,
    config: SpeedSettingConfig | None = None,
) -> SpeedAssignment:
    """Choose the epoch's tier configuration (the CR algorithm).

    Args:
        heat: per-extent predicted request rates (requests/second).
        num_disks: array width.
        model: response model built on the array's disk mechanics.
        spec: disk hardware parameters (for speeds and power).
        epoch_seconds: planning horizon.
        goal_s: average response-time goal; None = energy-only (still
            requires every loaded tier to be stable).
        prev_boundaries: last epoch's boundary vector, for the
            reconfiguration penalty.
        config: optimizer knobs.
    """
    if num_disks <= 0:
        raise ValueError("num_disks must be positive")
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    cfg = config or SpeedSettingConfig()
    heat = np.asarray(heat, dtype=np.float64)
    num_extents = len(heat)
    if num_extents == 0:
        raise ValueError("heat vector is empty")

    speeds_desc = tuple(sorted(spec.rpm_levels, reverse=True))
    num_speeds = len(speeds_desc)
    sorted_heat = np.sort(heat, kind="stable")[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_heat)))
    total_lambda = float(prefix[-1])
    share = num_extents / num_disks

    planning_goal = None
    if goal_s is not None:
        planning_goal = goal_s * (1.0 - cfg.goal_margin)
    # Constraint in sum form: sum_t lambda_t * R_t <= goal * Lambda.
    response_budget = math.inf if planning_goal is None else planning_goal * total_lambda

    # Per-(speed, boundary-pair) tier evaluation, built incrementally in
    # the recursion below.
    def tier_cost(speed_idx: int, disk_lo: int, disk_hi: int) -> tuple[float, float, TierPrediction] | None:
        """(energy_J, weighted_response, prediction) for one tier, or
        None when the tier is saturated."""
        n = disk_hi - disk_lo
        rpm = speeds_desc[speed_idx]
        e_lo = int(round(disk_lo * share)) if disk_lo < num_disks else num_extents
        e_hi = num_extents if disk_hi == num_disks else int(round(disk_hi * share))
        e_hi = max(e_hi, e_lo)
        tier_lambda = float(prefix[e_hi] - prefix[e_lo])
        per_disk = tier_lambda / n
        moments = model.moments(rpm)
        rho = per_disk * moments.mean
        if rho >= model.max_utilization and tier_lambda > 0:
            return None
        if tier_lambda > 0:
            wait = per_disk * moments.second / (2.0 * (1.0 - rho))
            response = moments.mean + wait
        else:
            response = moments.mean
            rho = 0.0
        energy = n * spec.idle_watts(rpm) * epoch_seconds
        energy += tier_lambda * moments.mean * spec.seek_watts * epoch_seconds
        prediction = TierPrediction(
            rpm=rpm,
            num_disks=n,
            tier_lambda=tier_lambda,
            per_disk_lambda=per_disk,
            utilization=rho,
            response_s=response,
        )
        return energy, tier_lambda * response, prediction

    def change_penalty(boundaries: tuple[int, ...]) -> float:
        if prev_boundaries is None or cfg.change_penalty_joules == 0.0:
            return 0.0
        if len(prev_boundaries) != len(boundaries):
            return 0.0
        moved = sum(
            abs(boundaries[t] - prev_boundaries[t]) for t in range(1, len(boundaries) - 1)
        )
        return moved * cfg.change_penalty_joules

    best_energy = math.inf
    best: tuple[tuple[int, ...], list[TierPrediction], float, float] | None = None

    # Depth-first enumeration of non-decreasing boundary vectors.
    def recurse(
        speed_idx: int,
        disk_cursor: int,
        partial_energy: float,
        partial_weighted: float,
        partial_boundaries: list[int],
        partial_predictions: list[TierPrediction],
    ) -> None:
        nonlocal best_energy, best
        if speed_idx == num_speeds - 1:
            # Last (slowest) tier takes all remaining disks.
            lo, hi = disk_cursor, num_disks
            boundaries = tuple(partial_boundaries + [num_disks])
            if hi > lo:
                result = tier_cost(speed_idx, lo, hi)
                if result is None:
                    return
                energy, weighted, prediction = result
                partial_energy += energy
                partial_weighted += weighted
                predictions = partial_predictions + [prediction]
            else:
                predictions = list(partial_predictions)
            if partial_weighted > response_budget:
                return
            total = partial_energy + change_penalty(boundaries)
            if total < best_energy:
                best_energy = total
                response = partial_weighted / total_lambda if total_lambda > 0 else 0.0
                best = (boundaries, predictions, partial_energy, response)
            return
        for next_cursor in range(disk_cursor, num_disks + 1):
            energy = partial_energy
            weighted = partial_weighted
            predictions = partial_predictions
            if next_cursor > disk_cursor:
                result = tier_cost(speed_idx, disk_cursor, next_cursor)
                if result is None:
                    continue
                tier_energy, tier_weighted, prediction = result
                energy = partial_energy + tier_energy
                weighted = partial_weighted + tier_weighted
                if weighted > response_budget:
                    continue
                if energy >= best_energy:
                    continue
                predictions = partial_predictions + [prediction]
            recurse(
                speed_idx + 1,
                next_cursor,
                energy,
                weighted,
                partial_boundaries + [next_cursor],
                predictions,
            )

    recurse(0, 0, 0.0, 0.0, [0], [])

    if best is None:
        # Nothing met the goal: fall back to everything at full speed.
        boundaries = tuple([0, num_disks] + [num_disks] * (num_speeds - 1))
        result = tier_cost(0, 0, num_disks)
        if result is None:
            # Even full speed saturates; report it anyway (the simulation
            # will show the overload, as the real system would).
            moments = model.moments(speeds_desc[0])
            prediction = TierPrediction(
                rpm=speeds_desc[0],
                num_disks=num_disks,
                tier_lambda=total_lambda,
                per_disk_lambda=total_lambda / num_disks,
                utilization=1.0,
                response_s=math.inf,
            )
            energy = num_disks * spec.active_watts(speeds_desc[0]) * epoch_seconds
            weighted = math.inf
        else:
            energy, weighted, prediction = result
        return SpeedAssignment(
            speeds_desc=speeds_desc,
            boundaries=boundaries,
            extent_boundaries=_extent_boundaries(num_extents, num_disks, boundaries),
            predictions=[prediction],
            predicted_energy_joules=energy,
            predicted_response_s=(weighted / total_lambda if total_lambda > 0 else 0.0),
            feasible=False,
        )

    boundaries, predictions, energy, response = best
    return SpeedAssignment(
        speeds_desc=speeds_desc,
        boundaries=boundaries,
        extent_boundaries=_extent_boundaries(num_extents, num_disks, boundaries),
        predictions=predictions,
        predicted_energy_joules=energy,
        predicted_response_s=response,
        feasible=True,
    )
