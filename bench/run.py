"""Benchmark entry point for the Hibernator reproduction.

Usage, from the root of a checkout (no install, no PYTHONPATH needed)::

    python3 bench/run.py --workload cello-hib --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --out report.json     # every workload, untraced and traced

Each run makes the workload's inputs from ``--seed``, runs one untimed
warm-up unit at 1% scale, then runs units -- each a fresh Python child
doing the whole workload from spec to result -- until ``--seconds``
have passed (at least three untraced units, or one untraced/traced pair
with ``--trace 1``). It checks the outputs, prints every metric by name
and unit as median/min/max/n, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced units; ``--trace 1`` alternates untraced and traced units and
reports the per-layer metrics. See bench/README.md for the catalog.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
#: Unit scratch space, relative to ROOT (the children's working directory),
#: which keeps AF_UNIX socket paths short.
WORK = Path(".bench_tmp")
MIN_UNTRACED_UNITS = 3
WARMUP_SCALE = 0.01
#: No unit starts, and a running one is killed, this long after a
#: (workload, trace mode) run began, so a hung unit cannot stall the run.
RUN_DEADLINE_S = 150.0
#: Timed end-to-end metrics reported as their fast quartile over the units
#: (an index into statistics.quantiles(n=4)) instead of the median. Other
#: tenants of a shared machine only ever slow a unit down, in stretches
#: that can cover half a run; the fast quartile tracks the code through them.
FAST_QUARTILE = {"wall_s": 0, "requests_per_s": 2}


def run_unit(job: dict[str, Any], deadline: float) -> dict[str, Any]:
    """One unit in a fresh child process; a crash becomes a failure record."""
    command = [sys.executable, str(BENCH / "workloads.py"), json.dumps(job)]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"{job['workload']} unit timed out"], "ops": 1}
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)  # the serve unit's daemon too
            child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-3:]
        return {"failures": [f"{job['workload']} unit exited {child.returncode}: {tail}"], "ops": 1}
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, traced: bool, scale: float,
            workdir: Path) -> list[dict[str, Any]]:
    """Warm up, then run units until ``seconds`` pass; returns their reports.

    The serve workload appends one batch cello-hib unit on the same trace
    file: the reference its results must equal.
    """
    import workloads

    deadline = time.monotonic() + RUN_DEADLINE_S
    warm = workloads.prepare(workload, seed, scale * WARMUP_SCALE, ROOT / workdir / "warmup")
    units = [dict(run_unit(dict(warm, traced=False, workdir=str(workdir / "warmup")), deadline),
                  warmup=True)]
    job = workloads.prepare(workload, seed, scale, ROOT / workdir / "inputs")
    start = time.monotonic()
    timed = 0
    while time.monotonic() < deadline and (
            timed < (2 if traced else MIN_UNTRACED_UNITS) or time.monotonic() - start < seconds
            or (traced and timed % 2)):
        unit_dir = workdir / f"u{timed}"
        units.append(run_unit(dict(job, traced=traced and timed % 2 == 1, workdir=str(unit_dir)),
                              deadline))
        shutil.rmtree(ROOT / unit_dir, ignore_errors=True)
        timed += 1
    if workload == "serve-cello-ctl":
        reference = run_unit(dict(job, workload="cello-hib", traced=False,
                                  workdir=str(workdir / "reference")), deadline)
        units.append(dict(reference, reference=True))
    return units


def check(units: list[dict[str, Any]]) -> tuple[int, list[str]]:
    """(operations attempted, failures): crashes, invariant violations, digests
    that disagree between repeats, and serve results that differ from the
    batch run on the same file."""
    attempted = sum(u.get("ops", 1) for u in units)
    failures = [f for u in units for f in u.get("failures", [])]
    runs = [u for u in units if "digest" in u and not u.get("warmup")]
    if not runs:
        return attempted, failures
    reference = next((u for u in runs if u.get("reference")), runs[0])
    for unit in runs:
        if unit["digest"] == reference["digest"]:
            continue
        diff = [f"{ours['policy']} {key} {ours[key]} != {theirs[key]}"
                for ours, theirs in zip(unit["results"], reference["results"])
                for key in ours
                if not key.startswith(("digest", "runtime_")) and ours[key] != theirs[key]]
        failures.append("result differs from the reference run: "
                        + ("; ".join(diff) or "in fields outside the summary"))
    return attempted, failures


def aggregate(units: list[dict[str, Any]], names: list[str]) -> dict[str, list[float]]:
    """Metric name -> the values the measured units give for it."""
    timed = [u for u in units if "digest" in u and not u.get("warmup") and not u.get("reference")]
    untraced = [u for u in timed if not u["traced"]]
    traced = [u for u in timed if u["traced"]]
    values: dict[str, list[float]] = {
        "setup_s": [u["setup_s"] for u in untraced],
        "wall_s": [u["wall_s"] for u in untraced],
        "requests_per_s": [u["requests_per_s"] for u in untraced],
        "peak_rss_mb": [u["peak_rss_mb"] for u in untraced],
        "sim_energy_kj": [u["energy_kj"] for u in untraced],
    }
    for name in names:
        if name not in values:
            values[name] = [u["layers"][name] for u in timed if name in u["layers"]]
    ctl = [x for u in untraced for x in u.get("ctl_ms", [])]
    lag = [x for u in untraced for x in u.get("lag_ms", [])]
    if ctl:
        for q in (50, 95, 99):
            values[f"serve.ctl_p{q}_ms"] = [percentile(ctl, q)]
        values["serve.ctl_max_ms"] = [max(ctl)]
        values["serve.ctl_samples"] = [float(len(ctl))]
        values["serve.send_lag_p99_ms"] = [percentile(lag, 99)]
    if traced and untraced:
        # Tracing cost on the simulation loop, from the results' own
        # runtime_wall_s (setup is excluded on both sides).
        ratio = (statistics.median(u["runtime_wall_s"] for u in traced)
                 / statistics.median(u["runtime_wall_s"] for u in untraced))
        values["harness.trace_overhead_pct"] = [100.0 * (ratio - 1.0)]
    return values


def environment(seed: int) -> dict[str, Any]:
    from repro.analysis.cache import CODE_VERSION

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "code_version": CODE_VERSION,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def bench_one(workload: str, seed: int, seconds: float, traced: bool, scale: float,
              catalog: list[dict[str, Any]]) -> dict[str, Any]:
    """Measure, check and print one (workload, trace mode); returns its record."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    start = time.perf_counter()
    try:
        units = measure(workload, seed, seconds, traced, scale, workdir)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass  # another run in this checkout still uses it
    attempted, failures = check(units)
    values = aggregate(units, [m["name"] for m in catalog])
    timed = sum(1 for u in units if not u.get("warmup") and not u.get("reference"))
    print(f"== {workload} seed={seed} trace={int(traced)} scale={scale:g}: "
          f"{timed} units in {time.perf_counter() - start:.1f} s")
    metrics: dict[str, dict[str, Any]] = {}
    for metric in catalog:
        name, unit = metric["name"], metric["unit"]
        found = values.get(name, [])
        if not found:
            if traced:
                print(f"  {name:28s} not measured on this workload")
            else:
                failures.append(f"{name}: no unit produced a value")
            metrics[name] = {"value": 0.0, "unit": unit, "median": 0.0, "min": 0.0, "max": 0.0,
                             "n": 0}
            continue
        median = value = statistics.median(found)
        label = "median"
        if name in FAST_QUARTILE and len(found) > 1:
            value = statistics.quantiles(found, n=4)[FAST_QUARTILE[name]]
            label = "fast quartile"
        metrics[name] = {"value": value, "unit": unit, "median": median, "min": min(found),
                         "max": max(found), "n": len(found)}
        print(f"  {name:28s} {value:14.6g} {unit:6s} {label:13s} (median {median:.6g}, "
              f"min {min(found):.6g}, max {max(found):.6g}, n={len(found)})")
    missing = sorted({m for u in units for m in u.get("missing", [])})
    if missing:
        print(f"  trace targets missing: {', '.join(missing)}")
    if workload == "serve-cello-ctl" and not traced and "serve.ctl_p50_ms" in values:
        print(f"  (control latency: p50 {values['serve.ctl_p50_ms'][0]:.2f} ms, "
              f"p95 {values['serve.ctl_p95_ms'][0]:.2f} ms over "
              f"{values['serve.ctl_samples'][0]:.0f} pooled samples)")
    failed = min(len(failures), attempted)
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  error_pct {100.0 * failed / attempted:.3f} % ({failed} of {attempted} operations)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "values": values,
        "digests": sorted({u["digest"] for u in units if "digest" in u and not u.get("warmup")}),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: {ROOT} is not a full checkout (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every trace-generator seed (default 0)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long to keep starting measured units")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every trace duration (smoke use only)")
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scale <= 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --scale and --seconds > 0")
    import workloads  # puts this checkout's src/ first on the import path

    if (os.cpu_count() or 1) < workloads.SWEEP_JOBS and \
            args.workload in (None, "oltp-sweep-j2"):
        print(f"bench: oltp-sweep-j2 runs {workloads.SWEEP_JOBS} workers but this machine "
              f"has {os.cpu_count()} CPU(s)", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    records: dict[str, Any] = {}
    for workload in [args.workload] if args.workload else workload_names:
        for traced in [bool(args.trace)] if args.trace is not None else [False, True]:
            catalog = spec["per_layer"] if traced else spec["end_to_end"]
            record = bench_one(workload, args.seed, args.seconds, traced, args.scale, catalog)
            records[f"{workload}/trace{int(traced)}"] = record
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": records}, indent=1,
                                             sort_keys=True) + "\n", encoding="utf-8")
    if len(records) == 1:
        (record,) = records.values()
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()}
    else:
        metrics = {f"{key}/{k}": {"value": v["value"], "unit": v["unit"]}
                   for key, record in records.items() for k, v in record["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
