"""Benchmark execution, BENCH files, and the regression gate.

A BENCH document is plain JSON::

    {
      "schema": 1,
      "generated_at": "2026-08-05T12:00:00+00:00",
      "code_version": "...",          # repro.analysis.cache.CODE_VERSION
      "environment": {"python": ..., "platform": ..., "cpu_count": ...},
      "repeats": 3,
      "scenarios": {
        "synth-base": {
          "events": 71234, "requests": 35617, "wall_s": 1.04,
          "events_per_s": 68494.2, "requests_per_s": 34247.1,
          "digest": "<sha256 of the runtime-stripped result>"
        }, ...
      }
    }

The *baseline* is the committed ``BENCH_*.json`` at the repo root with
the newest ``generated_at`` (the output file itself excluded), so simply
committing a new BENCH file advances the baseline for the next run.
Comparison is per-scenario on ``events_per_s``; a scenario below
``threshold`` times its baseline rate is a regression and the CLI exits
nonzero, mirroring ``repro lint``'s exit-code contract.

Wall time per scenario is the **best of N repeats** — the minimum is the
standard estimator for "the code's cost" because every source of noise
(scheduler, turbo, page cache) only ever adds time.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from repro.analysis.atomicio import atomic_write
from repro.analysis.cache import CODE_VERSION
from repro.analysis.parallel import run_spec
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec
from repro.lint.guard import resolve_repo_root
from repro.perf.digest import DIGEST_VERSION, fleet_result_digest, result_digest
from repro.perf.scenarios import PerfScenario, golden_specs

BENCH_SCHEMA_VERSION = 1
BENCH_PREFIX = "BENCH_"

#: A scenario is a regression when its events/s falls below this
#: fraction of the baseline's (0.9 = tolerate 10% noise).
DEFAULT_THRESHOLD = 0.9


def _measure(spec: Any) -> tuple[Any, str, int, int, float]:
    """Run one spec (single-array or fleet) and digest the result."""
    start = time.perf_counter()
    if isinstance(spec, FleetSpec):
        fleet_result = run_fleet(spec)
        wall = time.perf_counter() - start
        return (
            fleet_result,
            fleet_result_digest(fleet_result),
            int(fleet_result.extras["fleet_events_executed"]),
            fleet_result.num_requests + fleet_result.failed_requests,
            wall,
        )
    result = run_spec(spec)
    wall = time.perf_counter() - start
    return (
        result,
        result_digest(result),
        int(result.extras["runtime_events"]),
        result.num_requests + result.failed_requests,
        wall,
    )


def _run_one(scenario: PerfScenario, repeats: int) -> tuple[dict[str, Any], int]:
    """Run ``scenario`` ``repeats`` times; record best wall time.

    Returns ``(record, distinct_digests)``. The digest count is the
    caller's determinism canary: it must be 1, but the verdict is left
    to :func:`run_benchmark` so a full matrix run reports *every*
    nondeterministic scenario at once instead of aborting on the first.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    best_wall = float("inf")
    digests: set[str] = set()
    events = requests = 0
    for _ in range(repeats):
        # Fresh spec per repeat: policies are stateful.
        spec = scenario.spec()
        _, digest, events, requests, wall = _measure(spec)
        best_wall = min(best_wall, wall)
        digests.add(digest)
    record = {
        "events": events,
        "requests": requests,
        "wall_s": best_wall,
        "events_per_s": events / best_wall,
        "requests_per_s": requests / best_wall,
        "digest": min(digests),
    }
    return record, len(digests)


def run_benchmark(
    scenarios: tuple[PerfScenario, ...],
    repeats: int = 3,
    log: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the scenarios and build a BENCH document.

    Repeats of one spec must be byte-identical (modulo ``runtime_*``
    extras); any scenario whose repeats disagree means the simulator
    leaked nondeterminism. All such scenarios are collected and reported
    in a single :class:`RuntimeError` after the whole matrix has run, so
    one flaky scenario cannot hide another.
    """
    records: dict[str, Any] = {}
    nondeterministic: list[str] = []
    for scenario in scenarios:
        record, distinct = _run_one(scenario, repeats)
        records[scenario.name] = record
        if distinct != 1:
            nondeterministic.append(scenario.name)
            if log is not None:
                log(f"  {scenario.name:<28} NONDETERMINISTIC "
                    f"({distinct} distinct digests)")
            continue
        if log is not None:
            log(
                f"  {scenario.name:<28} {record['events']:>8} events  "
                f"{record['wall_s']:.3f} s  {record['events_per_s']:>10,.0f} ev/s"
            )
    if nondeterministic:
        raise RuntimeError(
            "scenario(s) produced multiple distinct result digests across "
            f"repeats: {', '.join(nondeterministic)}; the simulator leaked "
            "nondeterminism"
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "code_version": CODE_VERSION,
        "digest_version": DIGEST_VERSION,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "repeats": repeats,
        "scenarios": records,
    }


def write_bench(doc: dict[str, Any], path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str | Path) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "scenarios" not in doc:
        raise ValueError(f"{path}: not a BENCH document")
    return doc


def find_baseline(
    root: str | Path | None = None,
    exclude: str | Path | None = None,
) -> Path | None:
    """Newest committed BENCH file by ``generated_at``; None if none.

    ``exclude`` is the output path of the current run, so a rerun never
    compares against itself.

    Ties on ``generated_at`` (two files generated in the same second, or
    a copied document) are broken by file name, lexicographically last —
    an explicit, platform-independent rule, so which file wins never
    depends on directory iteration order.
    """
    base = Path(root) if root is not None else resolve_repo_root(Path.cwd())
    excluded = Path(exclude).resolve() if exclude is not None else None
    best: tuple[str, str, Path] | None = None
    for path in sorted(base.glob(BENCH_PREFIX + "*.json")):
        if excluded is not None and path.resolve() == excluded:
            continue
        try:
            doc = load_bench(path)
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        stamp = str(doc.get("generated_at", ""))
        if best is None or (stamp, path.name) > (best[0], best[1]):
            best = (stamp, path.name, path)
    return best[2] if best is not None else None


def compare_benchmarks(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Per-scenario speedup report.

    Returns ``(lines, regressions)``: human-readable comparison lines
    for every scenario present in both documents, and the names of
    scenarios whose ``events_per_s`` fell below ``threshold`` times the
    baseline. The gate runs on the *intersection* only: scenarios
    present on one side (added since the baseline, or dropped from it)
    are reported as informational lines plus a drift summary, never as
    regressions — a matrix rename or addition must not wedge the gate,
    and must not KeyError either.

    Result digests are compared per scenario. A digest mismatch is a
    regression only when both documents carry the same ``code_version``
    — then identical behaviour was promised and broke. Across code
    versions (or when either document predates the field) results may
    legitimately differ, so the mismatch is reported as an informational
    drift line instead of failing the gate.
    """
    if not 0.0 < threshold:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    lines: list[str] = []
    regressions: list[str] = []
    cur = current["scenarios"]
    base = baseline["scenarios"]
    cur_version = current.get("code_version")
    base_version = baseline.get("code_version")
    digests_gate = cur_version is not None and cur_version == base_version
    if (cur_version or base_version) and cur_version != base_version:
        lines.append(
            f"  (code_version drift: baseline {base_version or '<unversioned>'}"
            f" -> current {cur_version or '<unversioned>'}; digest "
            "mismatches reported as warnings, not regressions)"
        )
    added = sorted(set(cur) - set(base))
    removed = sorted(set(base) - set(cur))
    for name in sorted(set(cur) | set(base)):
        if name not in base:
            lines.append(f"  {name:<28} (new scenario, no baseline)")
            continue
        if name not in cur:
            lines.append(f"  {name:<28} (in baseline only; not run)")
            continue
        old = float(base[name]["events_per_s"])
        new = float(cur[name]["events_per_s"])
        ratio = new / old if old > 0 else float("inf")
        marker = ""
        if ratio < threshold:
            regressions.append(name)
            marker = f"  REGRESSION (< {threshold:.2f}x)"
        old_digest = base[name].get("digest")
        new_digest = cur[name].get("digest")
        if old_digest and new_digest and old_digest != new_digest:
            if digests_gate:
                if name not in regressions:
                    regressions.append(name)
                marker += "  DIGEST MISMATCH (same code_version)"
            else:
                marker += "  digest drift (informational)"
        lines.append(
            f"  {name:<28} {old:>10,.0f} -> {new:>10,.0f} ev/s "
            f"({ratio:.2f}x){marker}"
        )
    if added or removed:
        lines.append(
            f"  (scenario drift: {len(added)} added, {len(removed)} removed; "
            f"gated on {len(set(cur) & set(base))} common)"
        )
    return lines, regressions


def write_golden(path: str | Path) -> dict[str, str]:
    """Run the golden scenarios and write their digests to ``path``.

    This is how ``tests/golden/golden_results.json`` is (re)generated —
    only legitimate when a change *intends* to alter results, in which
    case ``CODE_VERSION`` must be bumped too (CACHE002 enforces that).
    """
    digests = {name: _measure(spec)[1] for name, spec in sorted(golden_specs().items())}
    doc = {
        "schema": 1,
        "digest_version": DIGEST_VERSION,
        "code_version": CODE_VERSION,
        "digests": digests,
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digests
