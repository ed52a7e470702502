"""Command-line interface.

Drive the library without writing Python::

    python -m repro gen-trace --kind oltp --duration 600 -o oltp.csv
    python -m repro trace-stats oltp.csv
    python -m repro trace import msr-sample.csv.gz --format msr -o real.csv.gz
    python -m repro trace stats real.csv.gz
    python -m repro run --policy hibernator --trace oltp.csv --slack 2.0
    python -m repro compare --trace oltp.csv --slack 2.0
    python -m repro compare --trace oltp.csv --jobs 4 --cache-dir .repro-cache
    python -m repro compare --trace oltp.csv --trace-out events.jsonl
    python -m repro trace events.jsonl
    python -m repro sweep-slack --trace oltp.csv --slacks 1.5,2,3
    python -m repro cache --cache-dir .repro-cache --clear

Online serving (see docs/serve.md)::

    python -m repro serve --replay oltp.csv --accel 0 --control /tmp/repro.sock
    python -m repro serve --live --ingest /tmp/feed.sock --accel 60 \\
        --control /tmp/repro.sock
    python -m repro ctl status --control /tmp/repro.sock
    python -m repro ctl set-goal --goal-ms 250 --control /tmp/repro.sock
    python -m repro ctl shutdown --control /tmp/repro.sock

Traces can come from a file (``--trace``) or be generated inline with
the same knobs as ``gen-trace``. All commands print plain-text tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from repro.analysis.experiments import (
    ComparisonResult,
    check_slack,
    default_array_config,
    derive_goal,
    run_comparison,
    run_single,
)
from repro.analysis.parallel import POLICY_FACTORIES, TRACE_GENERATORS, PolicySpec
from repro.analysis.report import format_kv, format_series, format_table
from repro.core.hibernator import HibernatorConfig
from repro.serve.protocol import COMMANDS, ProtocolError, finite_goal
from repro.sim.runner import SimulationResult
from repro.traces.cello import CelloConfig
from repro.traces.ingest import INGEST_FORMATS
from repro.traces.io import TraceFormatError, load_trace, save_trace
from repro.traces.model import Trace
from repro.traces.oltp import OltpConfig
from repro.traces.synthetic import (
    FlashCrowdConfig,
    MultiTenantConfig,
    SyntheticConfig,
    WriteBurstConfig,
)
from repro.traces.tracestats import compute_trace_stats


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", help="trace file (from gen-trace); omit to generate inline")
    parser.add_argument("--kind", choices=tuple(TRACE_GENERATORS), default="oltp",
                        help="inline generator kind (default: oltp)")
    parser.add_argument("--duration", type=float, default=900.0,
                        help="inline trace duration in seconds")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="inline mean request rate (req/s)")
    parser.add_argument("--extents", type=int, default=800,
                        help="logical extents in the volume")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _goal_ms(text: str) -> float:
    """``--goal-ms`` on ``serve`` and ``ctl``: the daemon's ``set-goal``
    check (finite, > 0), so ``nan`` or ``inf`` exits 2 here instead of
    running without a usable goal or reaching the wire as null."""
    try:
        return finite_goal(float(text), "value")
    except ValueError as exc:  # float()'s, or finite_goal's ProtocolError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _slack(text: str) -> float:
    """``--slack`` and each ``--slacks`` value: :func:`check_slack`, so
    0.5, ``nan`` or ``inf`` exits 2 here instead of running against a
    goal no scheme can meet or be measured against."""
    try:
        return check_slack(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _slacks(text: str) -> list[float]:
    return [_slack(part) for part in text.split(",")]


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent runs "
                             "(metrics are identical for any value; default 1)")
    parser.add_argument("--cache-dir",
                        help="directory for the on-disk result cache; "
                             "repeated identical runs are served from it")


def _add_trace_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out",
                        help="collect the structured event trace and write it "
                             "as JSONL to this path (render with 'repro trace')")


def _write_trace_out(events, path: str) -> None:
    """Write the JSONL trace atomically (temp file + rename).

    A SIGINT/SIGTERM mid-write can otherwise leave a truncated final
    line; with the rename, readers only ever see a complete file (or
    the previous one).
    """
    from repro.analysis.atomicio import atomic_write
    from repro.obs.tracelog import write_jsonl

    with atomic_write(path) as fh:
        lines = write_jsonl(events, fh)
    # stderr, like repro serve: stdout may be a --json document.
    print(f"wrote {lines} trace event(s) to {path}", file=sys.stderr)


def _make_cache(args: argparse.Namespace):
    if not getattr(args, "cache_dir", None):
        return None
    from repro.analysis.cache import ResultCache

    return ResultCache(args.cache_dir)


def _add_faults_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults",
                        help="JSON fault plan (see docs/faults.md): disk "
                             "failures, transient error windows, slow disks")


def _load_file(args: argparse.Namespace, path: str, load: Callable[[str], Any]) -> Any:
    """``load(path)``. A file that cannot be read or parsed ends the
    command with one line on stderr, ``repro <cmd>: <path>: <reason>``,
    and exit status 2; a :class:`TraceFormatError` names the file (and
    line) itself."""
    command = " ".join(filter(None, (args.command, getattr(args, "trace_command", None))))
    try:
        return load(path)
    except TraceFormatError as exc:
        message = str(exc)
    except OSError as exc:
        message = f"{path}: {exc.strerror or exc}"
    except (ValueError, EOFError) as exc:  # json.JSONDecodeError included
        message = f"{path}: {exc}"
    print(f"repro {command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_faults(args: argparse.Namespace):
    """The ``--faults`` plan, or None without one; a refused plan is a
    file error (:func:`_load_file`)."""
    if not getattr(args, "faults", None):
        return None
    from repro.faults.plan import load_fault_plan

    return _load_file(args, args.faults, load_fault_plan)


def _add_epoch_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epoch", type=float, default=600.0, help="epoch/period seconds")
    parser.add_argument("--migration", choices=("shuffle", "sorted", "none"),
                        default="shuffle")


def _add_policy_options(parser: argparse.ArgumentParser) -> None:
    """``--policy`` and the knobs :func:`_policy_spec` reads from ``args``."""
    parser.add_argument("--policy", choices=tuple(POLICY_FACTORIES), default="hibernator")
    _add_epoch_options(parser)
    parser.add_argument("--no-prime", dest="prime", action="store_false",
                        help="skip heat priming (start with an observation epoch)")


def _add_array_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--disks", type=int, default=8, help="array width")
    parser.add_argument("--speed-levels", type=int, default=5,
                        help="RPM levels of the multi-speed disks")
    parser.add_argument("--raid5", action="store_true", help="RAID-5 write expansion")
    parser.add_argument("--scheduler", choices=("fcfs", "sstf", "scan"), default="fcfs",
                        help="per-disk queue discipline")


def _resolve_trace(args: argparse.Namespace) -> Trace:
    if args.trace:
        return _load_file(args, args.trace, load_trace)
    return _generate(args)


def _inline_config(kind: str, duration: float, rate: float, extents: int, seed: int):
    """Generator config for the shared inline-trace CLI knobs.

    ``rate`` maps to each generator's primary rate knob (per-tenant
    base rate for multitenant, background read rate for writeburst);
    everything else keeps the generator's defaults.
    """
    if kind == "oltp":
        return OltpConfig(duration=duration, rate=rate,
                          num_extents=extents, seed=seed)
    if kind == "cello":
        return CelloConfig(days=max(duration / 86400.0, 1e-6),
                           day_rate=rate, night_rate=rate / 20.0,
                           num_extents=extents, seed=seed)
    if kind == "flashcrowd":
        return FlashCrowdConfig(duration=duration, base_rate=rate,
                                spike_start=duration / 2.0,
                                spike_duration=duration / 10.0,
                                num_extents=extents, seed=seed)
    if kind == "multitenant":
        return MultiTenantConfig(duration=duration, base_rate=rate,
                                 burst_period=max(duration / 6.0, 1e-6),
                                 num_extents=extents, seed=seed)
    if kind == "writeburst":
        return WriteBurstConfig(duration=duration, read_rate=rate,
                                checkpoint_period=max(duration / 6.0, 1e-6),
                                num_extents=extents, seed=seed)
    return SyntheticConfig(duration=duration, rate=rate,
                           num_extents=extents, seed=seed)


def _generate(args: argparse.Namespace) -> Trace:
    config = _inline_config(args.kind, args.duration, args.rate,
                            args.extents, args.seed)
    return TRACE_GENERATORS[args.kind][1](config)


def _array_config(args: argparse.Namespace, num_extents: int):
    config = default_array_config(
        num_disks=args.disks,
        num_extents=num_extents,
        num_speed_levels=args.speed_levels,
        raid5=args.raid5,
    )
    if args.scheduler != "fcfs":
        import dataclasses

        config = dataclasses.replace(config, scheduler=args.scheduler)
    return config


def _policy_spec(args: argparse.Namespace) -> PolicySpec:
    """``--policy`` as a named spec, with the CLI knobs that policy takes."""
    params = {
        "pdc": {"period_s": args.epoch},
        "oracle": {"epoch_seconds": args.epoch},
        "hibernator": {"epoch_seconds": args.epoch, "migration": args.migration,
                       "prime": args.prime},
    }.get(args.policy, {})
    return PolicySpec.named(args.policy, **params)


def _result_block(result: SimulationResult, base: SimulationResult | None,
                  goal: float | None) -> str:
    import math

    p95 = result.p95_response_s
    pairs = [
        ("policy", result.policy_params),
        ("requests", f"{result.num_requests}"),
        ("simulated", f"{result.sim_end:.1f} s"),
        ("energy", f"{result.energy_joules / 1e3:.1f} kJ"),
        ("mean power", f"{result.mean_power_watts:.1f} W"),
        ("mean response", f"{result.mean_response_s * 1e3:.2f} ms"),
        # NaN means "percentiles unavailable" (samples not kept), which
        # must not render as a plausible-looking 0.00 ms.
        ("p95 response", "n/a" if math.isnan(p95) else f"{p95 * 1e3:.2f} ms"),
        ("max response", f"{result.max_response_s * 1e3:.1f} ms"),
    ]
    if base is not None:
        pairs.append(("energy savings", f"{100 * result.energy_savings_vs(base):.1f} % vs Base"))
    if goal is not None:
        pairs.append(("goal", f"{goal * 1e3:.2f} ms "
                              f"({'met' if result.mean_response_s <= goal else 'VIOLATED'})"))
    if result.migration_extents:
        pairs.append(("migration", f"{result.migration_extents} extents"))
    for key, value in sorted(result.extras.items()):
        pairs.append((key, f"{value:g}"))
    return format_kv(f"== {result.policy_name} on {result.trace_name} ==", pairs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_trace(args: argparse.Namespace) -> int:
    trace = _generate(args)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} requests ({trace.duration:.1f} s) to {args.output}")
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    trace = _load_file(args, args.trace_file, load_trace)
    stats = compute_trace_stats(trace)
    print(format_kv(f"== {trace.name} ==", stats.rows()))
    return 0


def _column_ref(text: str):
    """CSV field-map column reference: an index if numeric, else a name."""
    return int(text) if text.lstrip("-").isdigit() else text


def cmd_trace_import(args: argparse.Namespace) -> int:
    from repro.traces.ingest import FieldMap, IngestOptions, import_trace

    field_map = None
    if args.format == "csv":
        field_map = FieldMap(
            time=_column_ref(args.time_col),
            kind=None if args.no_kind else _column_ref(args.kind_col),
            offset=_column_ref(args.offset_col),
            size=None if args.no_size else _column_ref(args.size_col),
            time_unit=args.time_unit,
            offset_unit=args.offset_unit,
            read_values=tuple(v.strip() for v in args.read_values.split(",") if v.strip()),
            delimiter=args.delimiter,
            has_header=not args.no_header,
            default_size_bytes=args.default_size,
        )
    try:
        options = IngestOptions(
            extent_bytes=args.extent_bytes,
            num_extents=args.extents,
            name=args.name,
            field_map=field_map,
            target_extents=args.target_extents,
            target_duration_s=args.target_duration,
            target_iops=args.target_iops,
            intensity=args.intensity,
            seed=args.ingest_seed,
        )
    except ValueError as exc:
        print(f"repro trace import: {exc}", file=sys.stderr)
        return 2
    result = _load_file(args, args.source,
                        lambda path: import_trace(path, args.format, options))
    save_trace(result.trace, args.output)
    if args.json:
        import json

        doc = result.provenance.to_dict()
        doc["output"] = args.output
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(format_kv(f"== imported {result.trace.name} ==",
                        result.provenance.rows()))
        print(f"wrote {len(result.trace)} requests "
              f"({result.trace.duration:.1f} s) to {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    faults = _load_faults(args)
    trace = _resolve_trace(args)
    config = _array_config(args, trace.num_extents)
    base = None
    goal = None
    if args.policy != "base":
        goal, base = derive_goal(trace, config, args.slack, faults=faults)
    policy, policy_config = _policy_spec(args).build(trace, config)
    result = run_single(trace, policy_config, policy, goal_s=goal,
                        observe=bool(args.trace_out), faults=faults)
    if args.trace_out:
        _write_trace_out(result.events, args.trace_out)
    if args.json:
        from repro.analysis.export import result_to_dict, write_json

        write_json(result_to_dict(result), sys.stdout)
        print()
    else:
        print(_result_block(result, base, goal))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    faults = _load_faults(args)
    trace = _resolve_trace(args)
    config = _array_config(args, trace.num_extents)
    cache = _make_cache(args)
    comparison = run_comparison(
        trace, config, slack=args.slack,
        hibernator_config=HibernatorConfig(epoch_seconds=args.epoch,
                                           migration=args.migration),
        jobs=args.jobs, cache=cache, observe=bool(args.trace_out),
        faults=faults,
    )
    if args.trace_out:
        _write_trace_out(comparison.all_events(), args.trace_out)
    if args.json:
        from repro.analysis.export import comparison_to_dict, write_json

        write_json(comparison_to_dict(comparison), sys.stdout)
        print()
    elif args.csv:
        from repro.analysis.export import write_comparison_csv

        write_comparison_csv(comparison, args.csv)
        print(f"wrote {args.csv}")
    else:
        print(format_table(ComparisonResult.HEADERS, comparison.rows(),
                           title=f"{trace.name}: scheme comparison "
                                 f"(goal {comparison.goal_s * 1e3:.2f} ms)"))
        print()
        print(format_table(ComparisonResult.RUNTIME_HEADERS, comparison.runtime_rows(),
                           title="run cost (simulation wall clock per scheme)"))
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['stores']} stored, {stats['entries']} entr(ies) on disk")
    return 0


def cmd_sweep_slack(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import RunSpec, TraceSpec, execute

    trace = _resolve_trace(args)
    config = _array_config(args, trace.num_extents)
    cache = _make_cache(args)
    observe = bool(args.trace_out)
    base = None
    goals = []
    for slack in args.slacks:
        goal, base = derive_goal(trace, config, slack, observe=observe, cache=cache, base=base)
        goals.append(goal)
    trace_spec = TraceSpec.from_trace(trace)
    hib_cfg = HibernatorConfig(epoch_seconds=args.epoch, migration=args.migration)
    specs = [
        RunSpec(
            trace=trace_spec,
            array=config,
            policy=PolicySpec.named("hibernator", config=hib_cfg),
            goal_s=goal,
            observe=observe,
        )
        for goal in goals
    ]
    results = execute(specs, jobs=args.jobs, cache=cache)
    if args.trace_out:
        events = list(base.events)
        for result in results:
            events.extend(result.events)
        _write_trace_out(events, args.trace_out)
    points = [(slack, 100.0 * result.energy_savings_vs(base))
              for slack, result in zip(args.slacks, results)]
    print(format_series(
        f"{trace.name}: Hibernator savings vs slack",
        points, x_label="slack", y_label="savings %",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeDaemon
    from repro.sim.runner import ArraySimulation
    from repro.traces.model import TraceBuilder

    faults = _load_faults(args)
    if args.live:
        if args.replay:
            print("repro serve: --live and --replay are mutually exclusive",
                  file=sys.stderr)
            return 2
        if not args.ingest:
            print("repro serve: --live needs --ingest SOCKET", file=sys.stderr)
            return 2
        if args.accel <= 0:
            print("repro serve: --live needs --accel > 0 (wall-clock pacing)",
                  file=sys.stderr)
            return 2
        trace = TraceBuilder("live", num_extents=args.extents).build()
        args.prime = False  # nothing to prime heat from; observe instead
    elif args.replay:
        trace = _load_file(args, args.replay, load_trace)
    else:
        trace = _resolve_trace(args)
    config = _array_config(args, trace.num_extents)
    goal = args.goal_ms / 1e3 if args.goal_ms is not None else None
    policy, policy_config = _policy_spec(args).build(trace, config)
    sim = ArraySimulation(
        trace, policy_config, policy, goal_s=goal,
        observe=bool(args.trace_out), faults=faults,
        live=args.live,
    )
    daemon = ServeDaemon(
        sim, args.control,
        accel=args.accel,
        ingest_path=args.ingest if args.live else None,
        trace_out=args.trace_out,
        exit_on_drain=args.exit_on_drain,
    )
    mode = "live" if args.live else f"replay of {trace.name} ({len(trace)} requests)"
    print(f"serving {mode} at accel={args.accel:g}; control socket {args.control}",
          file=sys.stderr)
    result = daemon.serve()
    if args.trace_out:
        print(f"wrote {daemon.trace_lines} trace event(s) to {args.trace_out}",
              file=sys.stderr)
    if args.json:
        from repro.analysis.export import result_to_dict, write_json

        write_json(result_to_dict(result), sys.stdout)
        print()
    else:
        print(_result_block(result, None, result.goal_s))
    return 0


def cmd_ctl(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient

    params: dict[str, object] = {}
    if args.ctl_command == "set-goal":
        if args.clear_goal:
            params["goal_s"] = None
        elif args.goal_ms is not None:
            params["goal_s"] = args.goal_ms / 1e3
        else:
            print("repro ctl set-goal: need --goal-ms MS or --clear-goal",
                  file=sys.stderr)
            return 2
    elif args.ctl_command == "inject-fault":
        if not args.plan:
            print("repro ctl inject-fault: need --plan PLAN.json", file=sys.stderr)
            return 2
        try:
            with open(args.plan, "r", encoding="utf-8") as fh:
                params["plan"] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro ctl inject-fault: cannot read plan {args.plan}: {exc}",
                  file=sys.stderr)
            return 2
        params["relative"] = not args.absolute
    try:
        with ServeClient.connect(args.control, retry_for_s=args.retry) as client:
            data = client.command(args.ctl_command, **params)
    except (OSError, ConnectionError) as exc:
        print(f"repro ctl: cannot reach daemon at {args.control}: {exc}",
              file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"repro ctl: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(data, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import render_runs
    from repro.obs.tracelog import read_jsonl, split_runs

    events = _load_file(args, args.trace_file, read_jsonl)
    if not events:
        print(f"{args.trace_file}: no events")
        return 0
    print(render_runs(split_runs(events), width=args.width))
    return 0


def _rule_id_list(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.lint import (
        check_code_version_bump,
        check_protocol_version_bump,
        lint,
        render_json,
        render_rule_list,
        render_text,
        resolve_repo_root,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0

    paths = list(args.paths)
    if not paths:
        # Prefer the source tree when run from a checkout; fall back to
        # wherever the package is importable from.
        default = Path("src/repro")
        paths = [str(default if default.is_dir() else Path(repro.__file__).parent)]

    extra = []
    if args.guard_base:
        repo_root = resolve_repo_root()
        extra = check_code_version_bump(repo_root, args.guard_base)
        extra += check_protocol_version_bump(repo_root, args.guard_base)

    try:
        result = lint(
            paths,
            select=_rule_id_list(args.select),
            ignore=_rule_id_list(args.ignore),
            extra_findings=extra,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 1 if result.has_errors else 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import write_golden

    digests = write_golden(args.write_golden)
    print(f"wrote {len(digests)} golden digest(s) to {args.write_golden}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.cache import CODE_VERSION, ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    entries = len(cache)
    print(format_kv(f"== result cache at {cache.root} ==", [
        ("entries", str(entries)),
        ("size", f"{cache.size_bytes() / 1024.0:.1f} KiB"),
        ("code version", CODE_VERSION),
    ]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hibernator (SOSP 2005) reproduction: disk-array "
                    "energy management experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a workload trace file")
    _add_trace_source(p)
    p.add_argument("-o", "--output", required=True, help="output path (.csv or .csv.gz)")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("trace-stats", help="characterize a trace file")
    p.add_argument("trace_file")
    p.set_defaults(func=cmd_trace_stats)

    p = sub.add_parser("run", help="run one policy on a trace")
    _add_trace_source(p)
    _add_array_options(p)
    _add_policy_options(p)
    p.add_argument("--slack", type=_slack, default=2.0,
                   help="response-time goal as a multiple of Base's mean "
                        "(ignored for --policy base)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_faults_option(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run the full scheme comparison")
    _add_trace_source(p)
    _add_array_options(p)
    p.add_argument("--slack", type=_slack, default=2.0)
    _add_epoch_options(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--csv", help="write per-scheme CSV to this path")
    _add_faults_option(p)
    _add_parallel_options(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-slack", help="Hibernator savings across goals")
    _add_trace_source(p)
    _add_array_options(p)
    p.add_argument("--slacks", type=_slacks, default="1.25,1.5,2.0,3.0",
                   help="comma-separated slack multipliers")
    _add_epoch_options(p)
    _add_parallel_options(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_sweep_slack)

    p = sub.add_parser(
        "serve",
        help="drive one simulation online behind a control socket",
        description="Run the simulator as a daemon (see docs/serve.md): "
                    "replay a trace (as fast as possible at --accel 0, "
                    "wall-clock paced at --accel N) or serve a live "
                    "request feed (--live with --ingest), while a control "
                    "socket accepts the commands docs/serve.md lists "
                    "(drive it with 'repro ctl'). At --accel 0 the replay "
                    "result is "
                    "byte-identical to 'repro run' on the same trace.",
    )
    _add_trace_source(p)
    _add_array_options(p)
    p.add_argument("--control", required=True,
                   help="AF_UNIX control socket path (created; stale "
                        "sockets are replaced)")
    p.add_argument("--replay", help="trace file to replay (alternative to "
                                    "the synthetic-trace options)")
    p.add_argument("--live", action="store_true",
                   help="serve a live request stream instead of a trace "
                        "(needs --ingest and --accel > 0)")
    p.add_argument("--ingest", help="AF_UNIX socket for the live request "
                                    "feed (one JSON request per line)")
    p.add_argument("--accel", type=float, default=0.0,
                   help="simulated seconds per wall-clock second; 0 = "
                        "as-fast-as-possible deterministic replay "
                        "(default 0)")
    p.add_argument("--goal-ms", type=_goal_ms, default=None,
                   help="mean response-time goal in ms")
    p.add_argument("--exit-on-drain", action="store_true",
                   help="exit when the replay workload drains instead of "
                        "waiting for a shutdown command")
    _add_policy_options(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_faults_option(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "ctl",
        help="send one command to a running serve daemon",
        description="Client for the 'repro serve' control socket. Prints "
                    "the daemon's JSON response; exits 1 when the daemon "
                    "is unreachable or refuses the command.",
    )
    p.add_argument("ctl_command", choices=tuple(COMMANDS), metavar="command",
                   help=f"one of: {', '.join(COMMANDS)}")
    p.add_argument("--control", required=True, help="daemon control socket path")
    p.add_argument("--goal-ms", type=_goal_ms, default=None,
                   help="set-goal: new goal in ms")
    p.add_argument("--clear-goal", action="store_true",
                   help="set-goal: remove the goal entirely")
    p.add_argument("--plan", help="inject-fault: JSON fault plan file "
                                  "(docs/faults.md schema)")
    p.add_argument("--absolute", action="store_true",
                   help="inject-fault: plan times are absolute simulated "
                        "seconds (default: offsets from now)")
    p.add_argument("--retry", type=float, default=5.0,
                   help="seconds to retry connecting while the daemon "
                        "starts (default 5)")
    p.set_defaults(func=cmd_ctl)

    p = sub.add_parser(
        "trace",
        help="work with traces: show events, import foreign formats, stats",
        description="Trace tooling. 'show' renders a structured JSONL "
                    "event trace, 'import' converts a public block-trace "
                    "format (MSR-Cambridge CSV, blkparse output, generic "
                    "columnar CSV) into the native format with optional "
                    "modernization (see docs/traces.md), and 'stats' "
                    "characterizes a native trace file. A bare "
                    "'repro trace FILE' is shorthand for 'show'.",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser("show", help="render a structured event trace (JSONL)")
    tp.add_argument("trace_file", help="JSONL file written via --trace-out")
    tp.add_argument("--width", type=int, default=64,
                    help="timeline width in characters (default 64)")
    tp.set_defaults(func=cmd_trace)

    tp = trace_sub.add_parser(
        "import",
        help="convert a public block-trace format to the native format",
        description="Parse a foreign trace file, optionally modernize it "
                    "(address-space/time/intensity rescaling), and write a "
                    "native trace plus a provenance report. Exit codes: "
                    "0 ok, 2 malformed input (the error names file and "
                    "line).",
    )
    tp.add_argument("source", help="trace file to import (.gz transparently)")
    tp.add_argument("--format", required=True, choices=tuple(INGEST_FORMATS),
                    help="source format")
    tp.add_argument("-o", "--output", required=True,
                    help="native trace output path (.csv or .csv.gz)")
    tp.add_argument("--name", help="trace name (default: source file stem)")
    tp.add_argument("--extent-bytes", type=int, default=1 << 20,
                    help="bytes per logical extent when folding byte "
                         "offsets (default 1 MiB)")
    tp.add_argument("--extents", type=int, default=None,
                    help="volume size in extents (default: smallest that "
                         "fits the highest offset)")
    tp.add_argument("--target-extents", type=int, default=None,
                    help="modernize: re-map the address space onto this "
                         "many extents, preserving hot/cold skew")
    tp.add_argument("--target-duration", type=float, default=None,
                    help="modernize: rescale the time axis to this many "
                         "seconds (mutually exclusive with --target-iops)")
    tp.add_argument("--target-iops", type=float, default=None,
                    help="modernize: rescale the time axis to this mean "
                         "request rate")
    tp.add_argument("--intensity", type=float, default=1.0,
                    help="modernize: arrival-rate factor at a fixed time "
                         "axis; <1 thins, >1 superposes jittered replicas "
                         "(default 1)")
    tp.add_argument("--ingest-seed", type=int, default=0,
                    help="seed for the seeded modernization transforms "
                         "(default 0)")
    tp.add_argument("--time-col", default="time",
                    help="csv: time column name or 0-based index")
    tp.add_argument("--kind-col", default="kind",
                    help="csv: read/write column name or index")
    tp.add_argument("--no-kind", action="store_true",
                    help="csv: no read/write column; every request is a read")
    tp.add_argument("--offset-col", default="offset",
                    help="csv: address column name or index")
    tp.add_argument("--size-col", default="size",
                    help="csv: request-size column name or index")
    tp.add_argument("--no-size", action="store_true",
                    help="csv: no size column; use --default-size")
    tp.add_argument("--time-unit", choices=("s", "ms", "us", "ns"), default="s",
                    help="csv: unit of the time column (default s)")
    tp.add_argument("--offset-unit", choices=("bytes", "sectors", "extents"),
                    default="bytes",
                    help="csv: unit of the address column (default bytes)")
    tp.add_argument("--delimiter", default=",",
                    help="csv: field separator (default ',')")
    tp.add_argument("--no-header", action="store_true",
                    help="csv: first row is data, not a header (column "
                         "references must be indices)")
    tp.add_argument("--read-values", default="r,read,0,true",
                    help="csv: comma-separated tokens marking a read "
                         "(default 'r,read,0,true')")
    tp.add_argument("--default-size", type=int, default=4096,
                    help="csv: request size in bytes when there is no size "
                         "column (default 4096)")
    tp.add_argument("--json", action="store_true",
                    help="emit the provenance record as JSON")
    tp.set_defaults(func=cmd_trace_import)

    tp = trace_sub.add_parser("stats", help="characterize a native trace file")
    tp.add_argument("trace_file")
    tp.set_defaults(func=cmd_trace_stats)

    p = sub.add_parser(
        "lint",
        help="run the simulator-aware static-analysis pass",
        description="Per-file static analysis enforcing the repo's "
                    "reproduction invariants: determinism (DET*), unit "
                    "consistency (UNIT*), guarded observability emits "
                    "(OBS002), resource lifecycle (RES*) and module-level "
                    "mutable state (CONC003), plus the CODE_VERSION "
                    "(CACHE002) and PROTOCOL_VERSION (PROTO003) bump guards "
                    "under --guard-base. Exit codes: 0 no error-severity "
                    "findings (warnings are reported but non-fatal), "
                    "1 errors, 2 usage error.",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    p.add_argument("--select", help="comma-separated rule ids to run exclusively")
    p.add_argument("--ignore", help="comma-separated rule ids to skip")
    p.add_argument("--guard-base",
                   help="git ref to diff against for the CODE_VERSION "
                        "(CACHE002) and PROTOCOL_VERSION (PROTO003) bump "
                        "guards; omit to skip both")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list suppressed findings (text format)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "perf",
        help="regenerate the golden result-digest pins",
        description="Run the golden recipes (repro.perf.golden_specs) and "
                    "write their result digests to PATH; this is how "
                    "tests/golden/golden_results.json is regenerated. "
                    "Host-time benchmarking lives in bench/run.py.",
    )
    p.add_argument("--write-golden", metavar="PATH", required=True,
                   help="run the golden scenarios and write their result "
                        "digests to PATH (regenerates the identity pins)")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("cache", help="inspect or clear the on-disk result cache")
    p.add_argument("--cache-dir", required=True, help="cache directory")
    p.add_argument("--clear", action="store_true", help="delete every cached result")
    p.set_defaults(func=cmd_cache)

    return parser


_TRACE_SUBCOMMANDS = ("show", "import", "stats")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arglist = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: "repro trace FILE" predates the show/import/stats
    # subcommands and still renders the JSONL event trace.
    if (
        len(arglist) >= 2
        and arglist[0] == "trace"
        and arglist[1] not in _TRACE_SUBCOMMANDS
        and arglist[1] not in ("-h", "--help")
    ):
        arglist.insert(1, "show")
    parser = build_parser()
    args = parser.parse_args(arglist)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
