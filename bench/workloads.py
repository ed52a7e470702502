"""The benchmark's four workloads: inputs made from a seed, and one unit.

A *unit* is one end-to-end execution of a workload, run in a fresh
Python process by ``bench/run.py``::

    python3 bench/workloads.py '<job JSON>'

It prints one JSON report line. The serve workload's daemon runs
through the same file (``python3 bench/workloads.py daemon ...``), which
calls the ``repro`` CLI in-process so a traced run can wrap the daemon's
layers too.

Only public entry points are used (``repro``, ``repro.analysis.parallel``,
``repro.analysis.cache``, ``repro.analysis.export``, ``repro.traces.io``,
``repro.serve.protocol``, ``repro.cli``), always with the default
simulation engine.

Every workload uses the 5-speed Ultrastar array and an 8 ms
mean-response goal, about twice Base's mean response on these traces
(the slack of the paper's F1/F3 comparisons). ``seed`` offsets every
trace-generator seed; the array placement seed stays 42 because
``repro serve`` has no knob for it and serve must equal the batch run.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    ArraySimulation,
    CelloConfig,
    HibernatorConfig,
    OltpConfig,
    default_array_config,
    generate_cello,
    generate_oltp,
)
from repro.analysis.cache import ResultCache  # noqa: E402
from repro.analysis.export import result_to_dict  # noqa: E402
from repro.analysis.parallel import (  # noqa: E402
    PolicySpec,
    RunSpec,
    TraceSpec,
    comparison_specs,
    execute,
    run_spec,
)
from repro.serve import protocol  # noqa: E402
from repro.traces.io import save_trace  # noqa: E402

from spans import Tracer  # noqa: E402

GOAL_S = 0.008
#: Worker processes of the oltp-sweep-j2 fan-out.
SWEEP_JOBS = 2
#: Open-loop rate of serve status requests (100/s).
CTL_PERIOD_S = 0.01
#: A control reply missing this long after it was due counts as failed.
CTL_TIMEOUT_S = 5.0
#: Upper bound on one serve replay; a daemon still running is killed.
DAEMON_TIMEOUT_S = 60.0


# -- inputs --------------------------------------------------------------------


def cello_config(seed: int, scale: float) -> CelloConfig:
    """F3's compressed 4-hour file-server day at a fifth of its load."""
    return CelloConfig(days=scale, day_rate=12.0, night_rate=0.6, day_length_s=14400.0,
                       burst_period_s=300.0, num_extents=800, seed=72 + seed)


def cello_spec(path: str) -> RunSpec:
    return RunSpec(
        trace=TraceSpec.from_file(path),
        array=default_array_config(num_disks=8, num_extents=800),
        policy=PolicySpec.named("hibernator", epoch_seconds=1200.0),
        goal_s=GOAL_S,
    )


def wide_config(seed: int, scale: float) -> OltpConfig:
    # 150 s with 60 s epochs: two boundaries plus the priming solve, and no
    # boundary lands on the trace end, so every seed makes three solves.
    return OltpConfig(duration=150.0 * scale, rate=400.0, num_extents=4800, seed=71 + seed)


def wide_spec(seed: int, scale: float) -> RunSpec:
    return RunSpec(
        trace=TraceSpec.from_generator("oltp", wide_config(seed, scale)),
        array=default_array_config(num_disks=48, num_extents=4800),
        policy=PolicySpec.named("hibernator", epoch_seconds=60.0),
        goal_s=GOAL_S,
    )


def sweep_config(seed: int, scale: float) -> OltpConfig:
    return OltpConfig(duration=180.0 * scale, rate=200.0, num_extents=800, seed=71 + seed)


def sweep_specs(seed: int, scale: float) -> list[RunSpec]:
    trace = TraceSpec.from_generator("oltp", sweep_config(seed, scale))
    array = default_array_config(num_disks=8, num_extents=800)
    base = RunSpec(trace=trace, array=array, policy=PolicySpec.named("base"))
    return [base] + comparison_specs(trace, array, goal_s=GOAL_S,
                                     hibernator_config=HibernatorConfig(epoch_seconds=120.0))


def prepare(workload: str, seed: int, scale: float, workdir: Path) -> dict[str, Any]:
    """Make a workload's inputs; returns the fields every unit job of it carries."""
    job: dict[str, Any] = {"workload": workload, "seed": seed, "scale": scale}
    if workload in ("cello-hib", "serve-cello-ctl"):
        # Written once and replayed by both workloads: save_trace rounds
        # times, so serve and the batch run must read the same file.
        trace = generate_cello(cello_config(seed, scale))
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "cello.csv"
        save_trace(trace, path)
        job["trace_path"] = str(path)
    elif workload == "oltp-wide-hib":
        trace = generate_oltp(wide_config(seed, scale))
    elif workload == "oltp-sweep-j2":
        trace = generate_oltp(sweep_config(seed, scale))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    job["expected_requests"] = len(trace)
    return job


# -- results -------------------------------------------------------------------


def _finite(value: Any) -> Any:
    """Non-finite floats as None, as the CLI's strict JSON writes them."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def digest(doc: dict[str, Any]) -> str:
    """sha256 of a result dict without its ``runtime_*`` extras (wall-clock
    instrumentation), so every repeat of a run must produce the same one."""
    extras = {k: v for k, v in doc["extras"].items() if not k.startswith("runtime_")}
    blob = json.dumps(_finite(dict(doc, extras=extras)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def summarize(doc: dict[str, Any], expected_requests: int) -> tuple[dict[str, Any], list[str]]:
    """Digest and headline fields of one result dict, plus invariant failures."""
    extras = doc["extras"]

    def ms(key: str) -> float | None:
        return None if doc[key] is None else doc[key] * 1e3

    summary = {
        "digest": digest(doc),
        "policy": doc["policy"],
        "num_requests": doc["num_requests"],
        "energy_kj": doc["energy_joules"] / 1e3,
        "mean_ms": ms("mean_response_s"),
        "p95_ms": ms("p95_response_s"),
        "p99_ms": ms("p99_response_s"),
        "goal_ms": ms("goal_s"),
        "migration_extents": doc["migration_extents"],
        "runtime_wall_s": extras["runtime_wall_s"],
        "runtime_events": extras["runtime_events"],
    }
    failures = []
    if doc["num_requests"] != expected_requests or doc["failed_requests"]:
        failures.append(f"{doc['policy']}: served {doc['num_requests']} of {expected_requests} "
                        f"requests, {doc['failed_requests']} failed")
    energy = doc["energy_joules"]
    parts = sum(doc["energy_breakdown_joules"].values())
    if not energy > 0 or abs(energy - parts) > 1e-6 * energy:
        failures.append(f"{doc['policy']}: energy {energy} J != breakdown sum {parts} J")
    return summary, failures


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of a waited-for child it forked, in MB.

    This process's own peak is ``VmHWM``, not ``ru_maxrss``: Linux carries
    the spawning process's peak into a child's ``ru_maxrss`` across exec,
    which would charge the memory of ``bench/run.py`` to the unit.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def _span_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of a traced unit."""
    out: dict[str, float] = {}
    totals = tracer.layer_totals()
    for layer in ("array", "disk", "mechanics", "power", "stats", "hooks", "heat", "guarantee"):
        calls, own = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
    out["engine.self_s"] = tracer.span("Engine.run")[2]
    out["runner.begin_s"] = tracer.span("ArraySimulation.begin")[1]
    out["runner.finalize_s"] = tracer.span("ArraySimulation.finalize")[1]
    calls, total, _, longest = tracer.span("solve_speed_assignment")
    out["cr.calls"], out["cr.solve_s"], out["cr.solve_max_s"] = calls, total, longest
    out["migration.plan_s"] = tracer.span("plan_shuffle_migration")[1]
    out["traces.build_s"] = totals.get("traces", (0, 0.0))[1]
    out["cache.put_s"] = tracer.span("ResultCache.put")[1]
    return out


def _report(job: dict[str, Any], docs: list[dict[str, Any]], **fields: Any) -> dict[str, Any]:
    """Unit report: per-result summaries, their joint digest and failures.

    Results also give the deterministic per-layer counts and the
    Hibernator run's simulated response time.
    """
    summaries, failures = [], list(fields.pop("failures", []))
    for doc in docs:
        summary, problems = summarize(doc, job["expected_requests"])
        summaries.append(summary)
        failures.extend(problems)
    hib = next(s for s in summaries if s["policy"] == "Hibernator")
    layers = {
        "engine.events": sum(s["runtime_events"] for s in summaries),
        "migration.moves": sum(s["migration_extents"] for s in summaries),
        "sim.mean_response_ms": hib["mean_ms"],
        "sim.goal_miss_pct": 100.0 * max(0.0, hib["mean_ms"] / hib["goal_ms"] - 1.0),
        **fields.pop("layers", {}),
    }
    return {
        "traced": job["traced"],
        "digest": hashlib.sha256("".join(s["digest"] for s in summaries).encode()).hexdigest(),
        "results": summaries,
        "energy_kj": hib["energy_kj"],
        "runtime_wall_s": sum(s["runtime_wall_s"] for s in summaries),
        "peak_rss_mb": _peak_rss_mb(),
        "failures": failures,
        "layers": layers,
        **fields,
    }


# -- units ---------------------------------------------------------------------


def _run_one(job: dict[str, Any], spec: RunSpec, tracer: Tracer | None) -> dict[str, Any]:
    """cello-hib and oltp-wide-hib: one run_spec() from spec to result."""
    begun: list[float] = []
    begin = ArraySimulation.begin

    def timed_begin(self: ArraySimulation) -> None:
        begin(self)
        begun.append(time.perf_counter())

    ArraySimulation.begin = timed_begin
    start = time.perf_counter()
    result = run_spec(spec)
    wall = time.perf_counter() - start
    setup = begun[0] - start
    layers = {} if tracer is None else dict(_span_layers(tracer), **{"harness.traced_wall_s": wall})
    return _report(job, [result_to_dict(result)], setup_s=setup, wall_s=wall, ops=1,
                   requests_per_s=result.num_requests / (wall - setup), layers=layers)


def _run_sweep(job: dict[str, Any], tracer: Tracer | None) -> dict[str, Any]:
    specs = sweep_specs(job["seed"], job["scale"])
    cache = ResultCache(Path(job["workdir"]) / "cache")
    if tracer is not None:
        # Pool workers are separate processes the tracer cannot see, so
        # the traced unit runs the same six specs in-process.
        start = time.perf_counter()
        results = execute(specs, jobs=1, cache=cache)
        wall = time.perf_counter() - start
        layers = dict(_span_layers(tracer), **{"harness.traced_wall_s": wall})
        return _report(job, [result_to_dict(r) for r in results], wall_s=wall, ops=len(specs),
                       layers=layers)
    start = time.perf_counter()
    for spec in specs:
        cache.key_for(spec)
    key_s = time.perf_counter() - start
    specs[0].trace.build()
    setup = time.perf_counter() - start
    start = time.perf_counter()
    cold = execute(specs, jobs=SWEEP_JOBS, cache=cache)
    wall = time.perf_counter() - start
    start = time.perf_counter()
    warm = execute(specs, jobs=SWEEP_JOBS, cache=cache)
    hit_s = time.perf_counter() - start
    names = [spec.policy.name for spec in specs]
    cold_docs = [result_to_dict(r) for r in cold]
    failures = [f"{name}: warm cache result differs from the cold run"
                for name, c, w in zip(names, cold_docs, warm)
                if digest(c) != digest(result_to_dict(w))]
    run_walls = [r.extras["runtime_wall_s"] for r in cold]
    layers = {
        "parallel.efficiency": sum(run_walls) / (SWEEP_JOBS * wall),
        "parallel.overhead_s": wall - sum(run_walls) / SWEEP_JOBS,
        "cache.key_s": key_s,
        "cache.hit_s": hit_s,
        "cache.bytes": cache.size_bytes(),
    }
    layers.update({f"sweep.{name}_s": w for name, w in zip(names, run_walls)})
    requests = sum(r.num_requests for r in cold)
    return _report(job, cold_docs, setup_s=setup, wall_s=wall, ops=2 * len(specs),
                   requests_per_s=requests / wall, layers=layers, failures=failures)


def _connect(path: Path, daemon: subprocess.Popen[str], deadline: float) -> socket.socket:
    """Connect to the daemon's control socket as soon as it listens."""
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(path))
            return sock
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
        if daemon.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError("serve daemon never opened its control socket")
        time.sleep(0.002)


def _drive(sock: socket.socket) -> tuple[list[float], list[float], int, list[str]]:
    """Open-loop ``status`` requests until the replay drains, then shutdown.

    Requests are pipelined on the one connection at a fixed rate whatever
    the replies do; each reply is timed from when its request was due, so
    a stalled daemon charges the wait to every request queued behind it.
    Returns (latencies s, send lags s, operations, failures).
    """
    sock.settimeout(CTL_TIMEOUT_S)
    status = protocol.encode_line({"cmd": "status"})
    due_times: deque[float] = deque()
    latencies: list[float] = []
    lags: list[float] = []
    failures: list[str] = []
    buffer = b""
    sent = 0
    drained = closed = False
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    start = time.perf_counter()
    try:
        while not closed:
            now = time.perf_counter()
            if due_times and now - due_times[0] > CTL_TIMEOUT_S:
                break
            if not drained:
                due = start + sent * CTL_PERIOD_S
                if now >= due:
                    sock.sendall(status)
                    lags.append(now - due)
                    due_times.append(due)
                    sent += 1
                    continue
                wait = due - now
            elif not due_times:
                break
            else:
                wait = CTL_TIMEOUT_S - (now - due_times[0])
            if not selector.select(max(wait, 0.0)):
                continue
            chunk = sock.recv(65536)
            if not chunk:
                closed = True
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            now = time.perf_counter()
            for line in lines:
                due = due_times.popleft()
                reply = protocol.decode_line(line)
                if not reply.get("ok"):
                    failures.append(f"status refused: {reply.get('error')}")
                    continue
                latencies.append(now - due)
                drained = drained or bool(reply["data"].get("drained"))
    finally:
        selector.close()
    failures.extend(["status reply missing"] * len(due_times))
    if not closed:
        sock.sendall(protocol.encode_line({"cmd": "shutdown"}))
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
        if not buffer.strip() or not protocol.decode_line(buffer.split(b"\n")[0]).get("ok"):
            failures.append("shutdown not acknowledged")
    return latencies, lags, sent + 1, failures


def _run_serve(job: dict[str, Any], traced: bool) -> dict[str, Any]:
    work = Path(job["workdir"])
    control, events, report = work / "ctl.sock", work / "events.jsonl", work / "daemon.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "daemon", str(report), str(int(traced)),
        "serve", "--replay", job["trace_path"], "--disks", "8", "--policy", "hibernator",
        "--epoch", "1200", "--goal-ms", str(GOAL_S * 1e3), "--accel", "0",
        "--trace-out", str(events), "--json", "--control", str(control),
    ]
    start = time.perf_counter()
    daemon = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        sock = _connect(control, daemon, start + DAEMON_TIMEOUT_S)
        ready = time.perf_counter() - start
        with sock:
            latencies, lags, ops, failures = _drive(sock)
        out, err = daemon.communicate(timeout=DAEMON_TIMEOUT_S)
        wall = time.perf_counter() - start
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    if daemon.returncode != 0:
        raise RuntimeError(f"serve daemon exited {daemon.returncode}: {err.strip()[-500:]}")
    doc = json.loads(out)
    own = json.loads(report.read_text(encoding="utf-8"))
    if traced:
        layers = dict(own["layers"], **{"harness.traced_wall_s": wall})
    else:
        layers = {
            "serve.ready_s": ready,
            "obs.events": sum(1 for _ in events.open(encoding="utf-8")),
            "obs.jsonl_bytes": events.stat().st_size,
        }
    return _report(job, [doc], setup_s=ready, wall_s=wall, ops=ops + 1,
                   requests_per_s=doc["num_requests"] / (wall - ready), layers=layers,
                   failures=failures, missing=own["missing"], peak_rss_mb=own["peak_rss_mb"],
                   ctl_ms=[x * 1e3 for x in latencies], lag_ms=[x * 1e3 for x in lags])


def run_unit(job: dict[str, Any]) -> dict[str, Any]:
    """Execute one unit of ``job["workload"]``; returns its report."""
    Path(job["workdir"]).mkdir(parents=True, exist_ok=True)
    workload = job["workload"]
    if workload == "serve-cello-ctl":
        return _run_serve(job, job["traced"])
    tracer = Tracer().install() if job["traced"] else None
    if workload == "cello-hib":
        report = _run_one(job, cello_spec(job["trace_path"]), tracer)
    elif workload == "oltp-wide-hib":
        report = _run_one(job, wide_spec(job["seed"], job["scale"]), tracer)
    else:
        report = _run_sweep(job, tracer)
    report["missing"] = tracer.missing if tracer is not None else []
    return report


def serve_daemon(report_path: str, traced: bool, argv: list[str]) -> int:
    """``repro serve`` in this process, optionally traced; writes a report."""
    from repro.cli import main

    tracer = Tracer().install() if traced else None
    code = main(argv)
    report = {
        "peak_rss_mb": _peak_rss_mb(),
        "layers": _span_layers(tracer) if tracer is not None else {},
        "missing": tracer.missing if tracer is not None else [],
    }
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "daemon":
        sys.exit(serve_daemon(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    print(json.dumps(run_unit(json.loads(sys.argv[1]))))
