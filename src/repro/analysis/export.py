"""Result export: simulation results to JSON/CSV for external plotting.

The text tables in :mod:`repro.analysis.report` are for eyes; these
serializers are for pipelines — everything a
:class:`repro.sim.runner.SimulationResult` carries, in plain data types.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import IO, Any

from repro.analysis.atomicio import atomic_write
from repro.analysis.experiments import ComparisonResult
from repro.obs.events import event_to_dict
from repro.sim.runner import SimulationResult


def _json_safe(value: float) -> float | None:
    """NaN has no JSON encoding; empty latency windows export as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def result_to_dict(
    result: SimulationResult,
    include_series: bool = False,
    include_events: bool = False,
) -> dict[str, Any]:
    """Flatten one run into JSON-safe types.

    Args:
        include_series: also include the time series (latency windows,
            speed and power samples); omitted by default because they
            dominate the payload.
        include_events: also include the structured trace events (only
            present on runs built with ``observe=True``).
    """
    out: dict[str, Any] = {
        "trace": result.trace_name,
        "policy": result.policy_name,
        "policy_params": result.policy_params,
        "num_requests": result.num_requests,
        "failed_requests": result.failed_requests,
        "sim_end_s": result.sim_end,
        "energy_joules": result.energy_joules,
        "mean_power_watts": result.mean_power_watts,
        "energy_breakdown_joules": dict(result.breakdown.joules),
        "mean_response_s": result.mean_response_s,
        # Percentiles are NaN when unavailable (keep_latency_samples=False
        # or no served requests); NaN has no JSON encoding, so export null.
        "p95_response_s": _json_safe(result.p95_response_s),
        "p99_response_s": _json_safe(result.p99_response_s),
        "max_response_s": result.max_response_s,
        "goal_s": result.goal_s,
        "meets_goal": result.meets_goal,
        "migration_extents": result.migration_extents,
        "migration_bytes": result.migration_bytes,
        "spinups": result.spinups,
        "speed_changes": result.speed_changes,
        "extras": dict(result.extras),
    }
    if include_series:
        out["latency_windows"] = [[w[0], _json_safe(w[1]), w[2]] for w in result.latency_windows]
        out["speed_samples"] = [list(s) for s in result.speed_samples]
        out["power_samples"] = [list(p) for p in result.power_samples]
    if include_events:
        out["events"] = [event_to_dict(e) for e in result.events]
    return out


def comparison_to_dict(comparison: ComparisonResult, include_series: bool = False) -> dict[str, Any]:
    """Flatten a whole comparison (per-scheme results plus savings)."""
    return {
        "goal_s": comparison.goal_s,
        "slack": comparison.slack,
        "schemes": {
            name: {
                **result_to_dict(result, include_series=include_series),
                "energy_savings_vs_base": comparison.savings(name),
            }
            for name, result in comparison.results.items()
        },
    }


def _strict_json(value: Any) -> Any:
    """Recursively replace non-finite floats with None.

    ``result_to_dict`` guards the fields it knows can be NaN (the
    percentiles, empty latency windows), but values it passes through
    whole — ``extras`` gauges, event fields — can also carry NaN, and
    Python's default ``json.dump`` would emit a bare ``NaN`` literal
    that strict parsers (``jq``, ``JSON.parse``) reject. Every ``--json``
    CLI path funnels through :func:`write_json`, so sanitizing here
    covers run/compare/serve at once.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def write_json(data: dict[str, Any], path: str | Path | IO[str]) -> None:
    """Write a dict (from the functions above) as strict indented JSON.

    Non-finite floats anywhere in the tree become null;
    ``allow_nan=False`` makes any leak a loud error instead of invalid
    output.
    """
    data = _strict_json(data)
    if hasattr(path, "write"):
        json.dump(data, path, indent=2, sort_keys=True, allow_nan=False)  # type: ignore[arg-type]
        return
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)


_CSV_FIELDS = [
    "trace", "policy", "num_requests", "energy_joules", "mean_power_watts",
    "mean_response_s", "p95_response_s", "p99_response_s", "max_response_s",
    "goal_s", "meets_goal", "migration_extents", "spinups", "speed_changes",
    "energy_savings_vs_base",
]


def write_comparison_csv(comparison: ComparisonResult, path: str | Path) -> None:
    """One CSV row per scheme: the columns every plot script wants."""
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for name, result in comparison.results.items():
            row = result_to_dict(result)
            row["energy_savings_vs_base"] = comparison.savings(name)
            writer.writerow({k: row[k] for k in _CSV_FIELDS})
