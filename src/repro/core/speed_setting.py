"""CR: the coarse-grained disk-speed setting algorithm.

At each epoch boundary Hibernator chooses, for the *whole next epoch*,
how many disks spin at each supported speed. Disks are kept in a fixed
order and partitioned into contiguous *tiers*, fastest tier first; the
hottest extents are assigned to the fastest tier in proportion to its
disk count (the multi-tier layout), so a candidate partition fully
determines each tier's predicted load.

For every candidate partition the optimizer predicts

* **response time** — load-weighted M/G/1 mean across tiers
  (:mod:`repro.core.response_model`), and
* **energy** — per-tier idle power plus seek power times predicted
  utilization, over the epoch, plus a reconfiguration penalty
  proportional to how far tier boundaries move (speed transitions and
  migration are not free),

and picks the minimum-energy candidate whose predicted response time
meets the goal. If no candidate is predicted to meet the goal the
assignment falls back to all disks at full speed — the same conservative
choice the performance guarantee would force anyway.

The search is exact within the monotone hot-to-fast layout family for
every N and K: of the C(N+K-1, K-1) non-decreasing boundary vectors
(compositions of N disks over K speeds) it skips only those a prune
proves cannot win, and it returns the lexicographically first
minimum-energy candidate. Each tier's energy, weighted response and
saturation are tabulated per (speed, lo, hi) once per solve with numpy.
The leading boundaries are walked in Python with branch-and-bound
pruning on partial energy and partial weighted response; every
completion of a leading prefix is one contiguous block of a cached table
of trailing boundary vectors, scored in one vectorized pass. A block
holds at most ``_BLOCK_ROWS`` vectors, so memory stays bounded at any
width and speed count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.response_model import MG1ResponseModel, TierPrediction
from repro.disks.specs import DiskSpec


@dataclass
class SpeedSettingConfig:
    """CR optimizer knobs.

    Attributes:
        change_penalty_joules: energy charged per disk-position a tier
            boundary moves (accounts for spindle transitions and the
            migration the move triggers). 0 disables the penalty.
        goal_margin: fraction of the goal held back as safety margin;
            the optimizer plans against ``goal * (1 - goal_margin)``.
    """

    change_penalty_joules: float = 200.0
    goal_margin: float = 0.1

    def __post_init__(self) -> None:
        if self.change_penalty_joules < 0:
            raise ValueError("change_penalty_joules must be non-negative")
        if not 0.0 <= self.goal_margin < 1.0:
            raise ValueError("goal_margin must be in [0, 1)")


@dataclass
class SpeedAssignment:
    """The CR optimizer's decision for one epoch.

    Attributes:
        speeds_desc: supported speeds, fastest first (the tier order).
        boundaries: cumulative disk counts per tier; tier ``t`` spans
            disk positions ``[boundaries[t], boundaries[t+1])``. Length
            ``K + 1`` with ``boundaries[0] == 0`` and
            ``boundaries[K] == num_disks``.
        extent_boundaries: cumulative extent counts per tier over the
            hottest-first extent order.
        predictions: per-tier M/G/1 predictions (only non-empty tiers).
        predicted_energy_joules: epoch energy of the chosen candidate
            (excluding the change penalty).
        predicted_response_s: load-weighted mean response time.
        feasible: False when the fallback (all full speed) was forced.
    """

    speeds_desc: tuple[int, ...]
    boundaries: tuple[int, ...]
    extent_boundaries: tuple[int, ...]
    predictions: list[TierPrediction]
    predicted_energy_joules: float
    predicted_response_s: float
    feasible: bool

    @property
    def counts(self) -> tuple[int, ...]:
        """Disks per speed, fastest first."""
        return tuple(
            self.boundaries[t + 1] - self.boundaries[t] for t in range(len(self.speeds_desc))
        )

    def rpm_for_position(self, position: int) -> int:
        """Speed of the disk at ``position`` in the fixed disk order."""
        for t in range(len(self.speeds_desc)):
            if self.boundaries[t] <= position < self.boundaries[t + 1]:
                return self.speeds_desc[t]
        raise ValueError(f"position {position} outside [0, {self.boundaries[-1]})")

    def tier_of_position(self, position: int) -> int:
        for t in range(len(self.speeds_desc)):
            if self.boundaries[t] <= position < self.boundaries[t + 1]:
                return t
        raise ValueError(f"position {position} outside [0, {self.boundaries[-1]})")

    def describe(self) -> str:
        parts = [
            f"{count}@{rpm}"
            for count, rpm in zip(self.counts, self.speeds_desc)
            if count > 0
        ]
        return "+".join(parts)


def _extent_boundaries(num_extents: int, num_disks: int, boundaries: tuple[int, ...]) -> tuple[int, ...]:
    """Map disk boundaries to extent boundaries (proportional shares)."""
    share = num_extents / num_disks
    out = [0]
    for b in boundaries[1:-1]:
        out.append(int(round(b * share)))
    out.append(num_extents)
    # Rounding can break monotonicity only at extremes; repair defensively.
    for i in range(1, len(out)):
        out[i] = max(out[i], out[i - 1])
    return tuple(out)


#: Most boundary vectors one numpy block scores, and so the most rows a
#: cached suffix table holds. It bounds the search's memory at any width:
#: 48 disks at 8 speeds have ~2e8 boundary vectors.
_BLOCK_ROWS = 1 << 16


def _trailing_width(num_disks: int, free: int) -> int:
    """How many of the ``free`` trailing boundaries one block covers: the
    most whose non-decreasing vectors over ``[0, num_disks]`` fit the cap."""
    width = free
    while width > 0 and math.comb(num_disks + width, width) > _BLOCK_ROWS:
        width -= 1
    return width


@functools.lru_cache(maxsize=8)
def _suffix_table(num_disks: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Every non-decreasing ``width``-vector over ``[0, num_disks]``.

    Returns ``(table, starts)``: ``table`` holds the vectors as columns in
    lexicographic order, one row per position (``width`` rows), in the
    smallest unsigned dtype that holds ``num_disks``. The vectors whose
    entries are all ``>= c`` are exactly the columns from ``starts[c]``
    on -- one contiguous block per value of the preceding boundary.
    """
    rows = math.comb(num_disks + width, width)
    flat = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(num_disks + 1), width)
        ),
        dtype=np.min_scalar_type(num_disks),
        count=rows * width,
    )
    table = np.ascontiguousarray(flat.reshape(rows, width).T)
    if width:
        starts = np.searchsorted(table[0], np.arange(num_disks + 1))
    else:
        starts = np.zeros(num_disks + 1, dtype=np.intp)
    table.flags.writeable = False
    starts.flags.writeable = False
    return table, starts


def solve_speed_assignment(
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

    # extent_of[d]: the first (hottest-first) extent at disk position d;
    # position N lies past the last extent.
    extent_of = np.array([int(round(d * share)) for d in range(num_disks)] + [num_extents])
    moments = [model.moments(rpm) for rpm in speeds_desc]
    mean = np.array([m.mean for m in moments])
    second = np.array([m.second for m in moments])
    idle_watts = np.array([spec.idle_watts(rpm) for rpm in speeds_desc])

    def tier_terms(speed_idx, disk_lo, disk_hi):
        """One tier's M/G/1 and energy terms over broadcast arrays of speed
        index and disk range ``[disk_lo, disk_hi)``. Each float operation
        and its order is fixed: the search compares these sums bit for bit.
        """
        n = disk_hi - disk_lo
        e_lo = extent_of[disk_lo]
        e_hi = np.maximum(extent_of[disk_hi], e_lo)
        tier_lambda = prefix[e_hi] - prefix[e_lo]
        loaded = tier_lambda > 0
        # Empty ranges divide 0 by 0 and saturated ones by 1 - rho <= 0;
        # the tables mask both.
        with np.errstate(divide="ignore", invalid="ignore"):
            per_disk = tier_lambda / n
            rho = per_disk * mean[speed_idx]
            wait = per_disk * second[speed_idx] / (2.0 * (1.0 - rho))
        saturated = (rho >= model.max_utilization) & loaded
        response = np.where(loaded, mean[speed_idx] + wait, mean[speed_idx])
        energy = n * idle_watts[speed_idx] * epoch_seconds
        energy = energy + tier_lambda * mean[speed_idx] * spec.seek_watts * epoch_seconds
        rho = np.where(loaded, rho, 0.0)
        return tier_lambda, per_disk, rho, response, energy, tier_lambda * response, saturated

    def tier_cost(speed_idx: int, disk_lo: int, disk_hi: int) -> tuple[float, float, TierPrediction, bool]:
        """(energy_J, weighted_response, prediction, saturated) for one tier."""
        tier_lambda, per_disk, rho, response, energy, weighted, saturated = (
            term.item() for term in tier_terms(speed_idx, disk_lo, disk_hi)
        )
        prediction = TierPrediction(
            rpm=speeds_desc[speed_idx],
            num_disks=disk_hi - disk_lo,
            tier_lambda=tier_lambda,
            per_disk_lambda=per_disk,
            utilization=rho,
            response_s=response,
        )
        return energy, weighted, prediction, saturated

    # Every tier's energy and weighted response per speed, flat: tier
    # [lo, hi) sits at lo * stride + hi. A saturated tier costs infinite
    # energy, so no candidate holding one is ever a strict minimum; an
    # empty tier (lo == hi) adds exactly 0.0.
    stride = np.intp(num_disks + 1)
    positions = np.arange(num_disks + 1)
    lo, hi = positions[:, None], positions[None, :]
    energy_flat = np.empty((num_speeds, stride * stride))
    weighted_flat = np.empty((num_speeds, stride * stride))
    for t in range(num_speeds):
        *_, energy, weighted, saturated = tier_terms(t, lo, hi)
        energy_flat[t] = np.where(hi > lo, np.where(saturated, np.inf, energy), 0.0).ravel()
        weighted_flat[t] = np.where(hi > lo, np.where(saturated, np.inf, weighted), 0.0).ravel()

    # moves[t, b]: how far boundary t moves when it lands on position b;
    # None when no change penalty applies.
    moves = None
    if (
        prev_boundaries is not None
        and cfg.change_penalty_joules != 0.0
        and len(prev_boundaries) == num_speeds + 1
    ):
        moves = np.abs(positions - np.asarray(prev_boundaries)[:, None])

    # Boundaries 1..K-1 are free. The leading ones are walked in Python
    # with branch-and-bound prunes; every completion of a leading prefix
    # is one contiguous block of the cached suffix table, scored at once.
    width = _trailing_width(num_disks, num_speeds - 1)
    lead = num_speeds - 1 - width
    suffix, starts = _suffix_table(num_disks, width)
    lead_energy = energy_flat[:lead].reshape(lead, stride, stride).tolist()
    lead_weighted = weighted_flat[:lead].reshape(lead, stride, stride).tolist()
    lead_moves = moves.tolist() if moves is not None else None

    best_energy = math.inf
    best: tuple[int, ...] | None = None

    def score(cursor, energy, weighted, moved, bounds):
        """Try every completion of ``bounds`` (which ends at ``cursor``)."""
        nonlocal best_energy, best
        rows = suffix[:, starts[cursor]:]
        cuts = [cursor, *rows, num_disks]
        # Sum tier by tier in tier order, so every total rounds exactly as
        # in a one-candidate-at-a-time search (tests/cr_reference.py). The
        # np.intp stride promotes the narrow unsigned rows: no index wraps.
        for t in range(lead, num_speeds):
            at = cuts[t - lead] * stride + cuts[t - lead + 1]
            energy += energy_flat[t].take(at)
            weighted += weighted_flat[t].take(at)
        total = energy
        if moves is not None:
            for t, row in enumerate(rows, start=lead + 1):
                moved += moves[t].take(row)
            total = energy + moved * cfg.change_penalty_joules
        total = np.where(weighted > response_budget, np.inf, total)
        # argmin returns the first minimum: the lexicographically first.
        i = int(np.argmin(total))
        if total.flat[i] < best_energy:
            best_energy = float(total.flat[i])
            best = (*bounds, *(int(row[i]) for row in rows), num_disks)

    def walk(t: int, cursor: int, energy: float, weighted: float, moved: int, bounds: tuple[int, ...]) -> None:
        if t == lead:
            score(cursor, energy, weighted, moved, bounds)
            return
        for next_cursor in range(cursor, num_disks + 1):
            tier_energy, tier_weighted = energy, weighted
            if next_cursor > cursor:
                tier_energy = energy + lead_energy[t][cursor][next_cursor]
                tier_weighted = weighted + lead_weighted[t][cursor][next_cursor]
                # Partial sums only grow, so neither prune drops a
                # candidate that could still be the first strict minimum.
                if tier_weighted > response_budget or tier_energy >= best_energy:
                    continue
            walk(
                t + 1,
                next_cursor,
                tier_energy,
                tier_weighted,
                (moved + lead_moves[t + 1][next_cursor]) if lead_moves is not None else 0,
                bounds + (next_cursor,),
            )

    walk(0, 0, 0.0, 0.0, 0, (0,))
    del walk  # its closure refers to itself; drop the cycle so the tables free now

    if best is None:
        # Nothing met the goal: fall back to everything at full speed.
        boundaries = tuple([0, num_disks] + [num_disks] * (num_speeds - 1))
        energy, weighted, prediction, saturated = tier_cost(0, 0, num_disks)
        if saturated:
            # Even full speed saturates; report it anyway (the simulation
            # will show the overload, as the real system would).
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
        return SpeedAssignment(
            speeds_desc=speeds_desc,
            boundaries=boundaries,
            extent_boundaries=_extent_boundaries(num_extents, num_disks, boundaries),
            predictions=[prediction],
            predicted_energy_joules=energy,
            predicted_response_s=(weighted / total_lambda if total_lambda > 0 else 0.0),
            feasible=False,
        )

    energy = weighted = 0.0
    predictions = []
    for t in range(num_speeds):
        if best[t + 1] > best[t]:
            tier_energy, tier_weighted, prediction, _ = tier_cost(t, best[t], best[t + 1])
            energy += tier_energy
            weighted += tier_weighted
            predictions.append(prediction)
    return SpeedAssignment(
        speeds_desc=speeds_desc,
        boundaries=best,
        extent_boundaries=_extent_boundaries(num_extents, num_disks, best),
        predictions=predictions,
        predicted_energy_joules=energy,
        predicted_response_s=weighted / total_lambda if total_lambda > 0 else 0.0,
        feasible=True,
    )


def solve_utilization_assignment(
    heat: np.ndarray,
    num_disks: int,
    model: MG1ResponseModel,
    spec: DiskSpec,
    epoch_seconds: float,
    util_target: float = 0.6,
) -> SpeedAssignment:
    """The naive coarse-grained strawman: utilization targeting.

    Instead of predicting response times against a goal, pick the single
    slowest speed at which the array's average utilization stays at or
    below ``util_target``, and run every disk there (no tiers). This is
    what a coarse-grained controller looks like *without* the paper's
    queueing model — the A3 ablation measures what the model buys.
    """
    if not 0.0 < util_target < 1.0:
        raise ValueError(f"util_target must be in (0, 1), got {util_target!r}")
    if num_disks <= 0:
        raise ValueError("num_disks must be positive")
    heat = np.asarray(heat, dtype=np.float64)
    if len(heat) == 0:
        raise ValueError("heat vector is empty")
    total_lambda = float(heat.sum())
    per_disk = total_lambda / num_disks
    speeds_desc = tuple(sorted(spec.rpm_levels, reverse=True))
    chosen_idx = 0  # fall back to fastest if nothing meets the target
    for idx in range(len(speeds_desc) - 1, -1, -1):  # slowest first
        rpm = speeds_desc[idx]
        if per_disk * model.moments(rpm).mean <= util_target:
            chosen_idx = idx
            break
    rpm = speeds_desc[chosen_idx]
    moments = model.moments(rpm)
    rho = per_disk * moments.mean
    if rho < model.max_utilization:
        wait = per_disk * moments.second / (2.0 * (1.0 - rho)) if total_lambda > 0 else 0.0
        response = moments.mean + wait
    else:
        response = math.inf
    energy = num_disks * spec.idle_watts(rpm) * epoch_seconds
    energy += total_lambda * moments.mean * spec.seek_watts * epoch_seconds
    boundaries = [0] * (len(speeds_desc) + 1)
    for t in range(chosen_idx + 1, len(speeds_desc) + 1):
        boundaries[t] = num_disks
    prediction = TierPrediction(
        rpm=rpm,
        num_disks=num_disks,
        tier_lambda=total_lambda,
        per_disk_lambda=per_disk,
        utilization=rho,
        response_s=response,
    )
    return SpeedAssignment(
        speeds_desc=speeds_desc,
        boundaries=tuple(boundaries),
        extent_boundaries=_extent_boundaries(len(heat), num_disks, tuple(boundaries)),
        predictions=[prediction],
        predicted_energy_joules=energy,
        predicted_response_s=response,
        feasible=rho < model.max_utilization,
    )
