"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.traces.io import load_trace


def gen(tmp_path, extra=()):
    path = tmp_path / "t.csv"
    code = main([
        "gen-trace", "--kind", "oltp", "--duration", "60", "--rate", "40",
        "--extents", "80", "--seed", "3", "-o", str(path), *extra,
    ])
    assert code == 0
    return path


def test_gen_trace_writes_file(tmp_path, capsys):
    path = gen(tmp_path)
    out = capsys.readouterr().out
    assert "wrote" in out
    trace = load_trace(path)
    assert len(trace) > 0
    assert trace.num_extents == 80


def test_trace_stats(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["trace-stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean rate" in out
    assert "top-10% share" in out


def test_run_base(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "base",
                 "--disks", "4"]) == 0
    out = capsys.readouterr().out
    assert "Base" in out
    assert "energy" in out


def test_run_hibernator_with_goal(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "hibernator",
                 "--disks", "4", "--slack", "2.0", "--epoch", "30"]) == 0
    out = capsys.readouterr().out
    assert "Hibernator" in out
    assert "goal" in out
    assert "savings" in out


def test_run_every_policy(tmp_path, capsys):
    path = gen(tmp_path)
    for policy in ("tpm", "drpm", "pdc", "maid", "oracle"):
        code = main(["run", "--trace", str(path), "--policy", policy,
                     "--disks", "4", "--epoch", "30"])
        assert code == 0, policy
    out = capsys.readouterr().out
    assert "TPM" in out and "Oracle" in out


#: ``repro run`` argv extras and the named spec they must build, with
#: ``--epoch 30``: the CLI-only knobs are pdc's period, oracle's epoch
#: and Hibernator's epoch, migration and priming (on by default).
_EPOCH = 30.0
_CLI_POLICIES = [
    ("base", (), {}),
    ("tpm", (), {}),
    ("drpm", (), {}),
    ("pdc", (), {"period_s": _EPOCH}),
    ("maid", (), {}),
    ("hibernator", (), {"epoch_seconds": _EPOCH, "migration": "shuffle"}),
    ("oracle", (), {"epoch_seconds": _EPOCH}),
    ("hibernator", ("--no-prime",), {"epoch_seconds": _EPOCH, "prime": False}),
    ("hibernator", ("--migration", "none"), {"epoch_seconds": _EPOCH, "migration": "none"}),
]


def test_cli_policies_cover_the_spec_registry():
    from repro.analysis.parallel import POLICY_FACTORIES

    assert {name for name, _, _ in _CLI_POLICIES} == set(POLICY_FACTORIES)


@pytest.mark.parametrize("policy, extra, params", _CLI_POLICIES,
                         ids=[" ".join((name, *extra)) for name, extra, _ in _CLI_POLICIES])
def test_run_builds_the_registry_policy(tmp_path, capsys, policy, extra, params):
    """``repro run --json`` equals the same run built from
    ``PolicySpec.named``, goal included: ``--slack`` x Base's mean
    response time, and no goal for ``base``."""
    import io
    import json

    from repro.analysis.experiments import default_array_config
    from repro.analysis.export import result_to_dict, write_json
    from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, execute_one

    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", policy, "--disks", "4",
                 "--epoch", str(_EPOCH), "--slack", "2.0", "--json", *extra]) == 0
    cli = json.loads(capsys.readouterr().out)

    def spec(name, goal_s=None, **kw):
        return RunSpec(trace=TraceSpec.from_file(str(path)),
                       array=default_array_config(num_disks=4, num_extents=80),
                       policy=PolicySpec.named(name, **kw), goal_s=goal_s)

    goal = None if policy == "base" else 2.0 * execute_one(spec("base")).mean_response_s
    out = io.StringIO()
    write_json(result_to_dict(execute_one(spec(policy, goal, **params))), out)
    expected = json.loads(out.getvalue())
    for doc in (cli, expected):
        doc["extras"] = {k: v for k, v in doc["extras"].items() if not k.startswith("runtime_")}
    assert cli == expected


def test_run_inline_generation(capsys):
    assert main(["run", "--kind", "synthetic", "--duration", "30",
                 "--rate", "20", "--extents", "40", "--policy", "base",
                 "--disks", "4"]) == 0
    assert "Base" in capsys.readouterr().out


def test_compare(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["compare", "--trace", str(path), "--disks", "4",
                 "--epoch", "30", "--slack", "2.0"]) == 0
    out = capsys.readouterr().out
    for name in ("Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator"):
        assert name in out


def test_sweep_slack(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["sweep-slack", "--trace", str(path), "--disks", "4",
                 "--epoch", "30", "--slacks", "1.5,3.0"]) == 0
    out = capsys.readouterr().out
    assert "savings %" in out
    assert "1.5" in out and "3" in out


def test_sweep_slack_rejects_sub_one(tmp_path):
    path = gen(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["sweep-slack", "--trace", str(path), "--disks", "4",
              "--slacks", "0.5"])
    assert exited.value.code == 2


@pytest.mark.parametrize("command, option", [
    ("run", "--slack"), ("compare", "--slack"), ("sweep-slack", "--slacks"),
])
@pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
def test_slack_must_be_finite_and_at_least_one(capsys, command, option, value):
    """``derive_goal``'s check, applied by argparse before any run: a
    slack below 1 asks for a goal faster than Base, and NaN or inf gives
    a goal nothing can be measured against."""
    argv = [command, "--kind", "synthetic", "--duration", "5", "--rate", "5",
            option, value if command != "sweep-slack" else f"1.5,{value}"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (f"repro {command}: error: argument {option}: "
                                    f"slack must be a finite number >= 1, got {float(value)!r}")
    assert err.count("error:") == 1, err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_raid5_and_scheduler_flags(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "base",
                 "--disks", "4", "--raid5", "--scheduler", "sstf"]) == 0
    assert "Base" in capsys.readouterr().out


def test_compare_with_jobs_and_cache(tmp_path, capsys):
    path = gen(tmp_path)
    cache_dir = tmp_path / "cache"
    args = ["compare", "--trace", str(path), "--disks", "4", "--epoch", "30",
            "--slack", "2.0", "--jobs", "2", "--cache-dir", str(cache_dir)]
    capsys.readouterr()
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "run cost" in cold
    assert "0 hit(s)" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "6 hit(s), 0 miss(es)" in warm
    # Identical scheme tables from the cold and warm runs.
    table = lambda out: [l for l in out.splitlines() if l.startswith(("Base", "TPM", "Hibernator"))]
    assert table(cold) == table(warm)


def test_cache_subcommand_stats_and_clear(tmp_path, capsys):
    path = gen(tmp_path)
    cache_dir = tmp_path / "cache"
    assert main(["compare", "--trace", str(path), "--disks", "4", "--epoch", "30",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries       6" in out
    assert main(["cache", "--cache-dir", str(cache_dir), "--clear"]) == 0
    assert "removed 6" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    assert "entries       0" in capsys.readouterr().out


def test_sweep_slack_jobs_matches_sequential(tmp_path, capsys):
    path = gen(tmp_path)
    base_args = ["sweep-slack", "--trace", str(path), "--disks", "4",
                 "--epoch", "30", "--slacks", "1.5,3.0"]
    capsys.readouterr()
    assert main(base_args) == 0
    sequential = capsys.readouterr().out
    assert main(base_args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert sequential == parallel


def test_run_trace_out_and_render(tmp_path, capsys):
    path = gen(tmp_path)
    out_path = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "hibernator",
                 "--disks", "4", "--epoch", "30",
                 "--trace-out", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert f"trace event(s) to {out_path}" in err
    assert out_path.is_file()

    assert main(["trace", str(out_path)]) == 0
    rendered = capsys.readouterr().out
    assert "epoch decisions" in rendered
    assert "reconciliation" in rendered
    assert "MISMATCH" not in rendered


@pytest.mark.parametrize("command", ["run", "compare"])
def test_json_stdout_stays_json_with_trace_out(tmp_path, capsys, command):
    """The --trace-out notice goes to stderr, so --json stdout is one
    JSON document a pipeline can load."""
    import json

    path = gen(tmp_path)
    out_path = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main([command, "--trace", str(path), "--disks", "4", "--epoch", "30",
                 "--json", "--trace-out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert isinstance(json.loads(captured.out), dict)
    assert f"trace event(s) to {out_path}" in captured.err


def test_compare_trace_out_covers_all_schemes(tmp_path, capsys):
    from repro.obs.tracelog import read_jsonl, split_runs

    path = gen(tmp_path)
    out_path = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["compare", "--trace", str(path), "--disks", "4",
                 "--epoch", "30", "--trace-out", str(out_path)]) == 0
    runs = split_runs(read_jsonl(out_path))
    names = [run[0].policy_name for run in runs]
    assert names == ["Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator"]

    capsys.readouterr()
    assert main(["trace", str(out_path)]) == 0
    rendered = capsys.readouterr().out
    for name in names:
        assert f"== {name} " in rendered
    assert "MISMATCH" not in rendered


def test_sweep_slack_trace_out(tmp_path, capsys):
    from repro.obs.tracelog import read_jsonl, split_runs

    path = gen(tmp_path)
    out_path = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["sweep-slack", "--trace", str(path), "--disks", "4",
                 "--epoch", "30", "--slacks", "1.5,3.0",
                 "--trace-out", str(out_path)]) == 0
    runs = split_runs(read_jsonl(out_path))
    # Base plus one Hibernator run per slack value.
    assert len(runs) == 3
    assert runs[0][0].policy_name == "Base"


def test_trace_on_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 0
    assert "no events" in capsys.readouterr().out


def test_serve_replay_matches_run(tmp_path, capsys):
    import json

    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "hibernator",
                 "--disks", "4", "--epoch", "30", "--json"]) == 0
    batch = json.loads(capsys.readouterr().out)
    events = tmp_path / "served.jsonl"
    # `run` derives its goal from a Base pre-run; hand serve the same
    # goal so the specs are identical, then the results must be too.
    goal_ms = batch["goal_s"] * 1e3
    assert main(["serve", "--replay", str(path), "--policy", "hibernator",
                 "--disks", "4", "--epoch", "30", "--accel", "0",
                 "--goal-ms", repr(goal_ms), "--exit-on-drain",
                 "--control", str(tmp_path / "ctl.sock"),
                 "--trace-out", str(events), "--json"]) == 0
    served = json.loads(capsys.readouterr().out)

    def strip(d):
        return {**d, "extras": {k: v for k, v in d["extras"].items()
                                if not k.startswith("runtime_")}}

    assert strip(batch) == strip(served)
    # The streamed trace renders and reconciles like a batch one.
    capsys.readouterr()
    assert main(["trace", str(events)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_serve_flag_validation(tmp_path, capsys):
    sock = str(tmp_path / "c.sock")
    assert main(["serve", "--live", "--control", sock]) == 2
    assert main(["serve", "--live", "--ingest", str(tmp_path / "f.sock"),
                 "--control", sock]) == 2  # accel defaults to 0
    assert main(["serve", "--live", "--replay", "x.csv", "--ingest",
                 str(tmp_path / "f.sock"), "--accel", "10",
                 "--control", sock]) == 2
    capsys.readouterr()


def _refused_goal_ms(tmp_path, capsys, command: str, goal: str) -> str:
    """stderr of ``serve`` or ``ctl set-goal`` refusing ``--goal-ms=goal``."""
    sock = str(tmp_path / "c.sock")
    if command == "serve":
        argv = ["serve", "--kind", "synthetic", "--duration", "5", "--rate", "10",
                "--extents", "80", "--disks", "4", "--exit-on-drain", "--control", sock]
    else:
        argv = ["ctl", "set-goal", "--retry", "0.1", "--control", sock]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--goal-ms={goal}"])
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "ctl"])
@pytest.mark.parametrize("goal", ["nan", "inf", "-inf", "1e400", "0", "-5"])
def test_goal_ms_must_be_finite_and_positive(tmp_path, capsys, command, goal):
    """Both --goal-ms flags apply set-goal's check: a NaN or infinite goal
    would disable the boost, and ctl would send NaN as null (clearing it)."""
    err = _refused_goal_ms(tmp_path, capsys, command, goal)
    assert "--goal-ms" in err and "must be a finite number > 0" in err


@pytest.mark.parametrize("command", ["serve", "ctl"])
def test_goal_ms_that_is_no_number_names_the_reason(tmp_path, capsys, command):
    """float()'s own reason, not argparse's "invalid _goal_ms value"."""
    err = _refused_goal_ms(tmp_path, capsys, command, "abc")
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (f"repro {command}: error: argument --goal-ms: "
                                    "could not convert string to float: 'abc'")


def test_ctl_unreachable_daemon(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.sock")
    assert main(["ctl", "ping", "--control", missing, "--retry", "0.1"]) == 1
    assert "cannot reach" in capsys.readouterr().err
    assert main(["ctl", "set-goal", "--control", missing]) == 2
    assert main(["ctl", "inject-fault", "--control", missing]) == 2


# -- trace subcommands (show / import / stats) --------------------------------


MSR_ROWS = (
    "128166372003061629,host,0,Read,0,4096,100\n"
    "128166372008061629,host,0,Write,1048576,8192,100\n"
    "128166372013061629,host,0,Read,7340032,4096,100\n"
)


def test_trace_import_msr(tmp_path, capsys):
    source = tmp_path / "msr.csv"
    source.write_text(MSR_ROWS)
    out = tmp_path / "imported.csv"
    code = main(["trace", "import", str(source), "--format", "msr",
                 "-o", str(out), "--name", "web0"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "imported web0" in printed
    assert "wrote 3 requests" in printed
    trace = load_trace(out)
    assert trace.name == "web0"
    assert len(trace) == 3
    assert trace.num_extents == 8  # extent 7 + 1 at default 1 MiB extents


def test_trace_import_with_modernization_and_json(tmp_path, capsys):
    source = tmp_path / "msr.csv"
    source.write_text(MSR_ROWS)
    out = tmp_path / "imported.csv"
    code = main(["trace", "import", str(source), "--format", "msr",
                 "-o", str(out), "--target-extents", "4",
                 "--target-duration", "10", "--intensity", "2", "--json"])
    assert code == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "msr"
    assert doc["transforms"] == ["extents->4", "duration->10s", "intensity x2"]
    assert doc["output"] == str(out)
    assert load_trace(out).num_extents == 4


def test_trace_import_generic_csv_flags(tmp_path, capsys):
    source = tmp_path / "g.csv"
    source.write_text("ts;op;lba;len\n0;R;0;8\n250;W;2048;16\n")
    out = tmp_path / "imported.csv"
    code = main(["trace", "import", str(source), "--format", "csv",
                 "-o", str(out), "--time-col", "ts", "--kind-col", "op",
                 "--offset-col", "lba", "--size-col", "len",
                 "--time-unit", "ms", "--offset-unit", "sectors",
                 "--delimiter", ";"])
    assert code == 0
    trace = load_trace(out)
    assert list(trace.times) == [0.0, 0.25]
    assert list(trace.kinds) == [0, 1]
    assert list(trace.sizes) == [4096, 8192]


def test_trace_import_bad_input_reports_line(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("notaticks,host,0,Read,0,4096,100\n")
    with pytest.raises(SystemExit) as exited:
        main(["trace", "import", str(source), "--format", "msr",
              "-o", str(tmp_path / "out.csv")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "repro trace import:" in err
    assert "bad.csv:1" in err
    assert not (tmp_path / "out.csv").exists()


def test_trace_stats_subcommand(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["trace", "stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean rate" in out


def test_trace_show_backcompat(tmp_path, capsys):
    """The pre-subcommand spelling `repro trace EVENTS.jsonl` still
    renders an event log, and `trace show` is its explicit alias."""
    path = gen(tmp_path)
    events = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["run", "--trace", str(path), "--policy", "hibernator",
                 "--disks", "4", "--epoch", "30",
                 "--trace-out", str(events)]) == 0
    capsys.readouterr()
    assert main(["trace", str(events)]) == 0
    legacy = capsys.readouterr().out
    assert "epoch decisions" in legacy
    assert main(["trace", "show", str(events)]) == 0
    assert capsys.readouterr().out == legacy


def test_gen_trace_new_kinds(tmp_path, capsys):
    for kind in ("flashcrowd", "multitenant", "writeburst"):
        path = tmp_path / f"{kind}.csv"
        code = main(["gen-trace", "--kind", kind, "--duration", "120",
                     "--rate", "30", "--extents", "64", "--seed", "2",
                     "-o", str(path)])
        assert code == 0, kind
        trace = load_trace(path)
        assert len(trace) > 0
        assert trace.num_extents == 64


@pytest.mark.parametrize("command", ["run", "compare", "serve"])
@pytest.mark.parametrize("plan_text, reason", [
    ('{"disk_failures": [{"time_s": NaN, "disk": 0}]}',
     "DiskFailure.time_s must be a finite number, got nan"),
    ('{"transient_faults": [{"start_s": 0, "end_s": 10, "probability": 0.5, "disk": [0]}]}',
     "unknown transient_faults[0] keys ['disk']"),
    ('{"disk_failures": [', "Expecting value"),
    (None, "No such file or directory"),
], ids=["nan-time", "unknown-entry-key", "not-json", "missing-file"])
def test_refused_faults_file_is_one_line_exit_2(tmp_path, capsys, command, plan_text, reason):
    plan = tmp_path / "plan.json"
    if plan_text is not None:
        plan.write_text(plan_text + "\n")
    extra = ["--control", str(tmp_path / "ctl.sock"), "--exit-on-drain"] if command == "serve" else []
    with pytest.raises(SystemExit) as exited:
        main([command, "--kind", "synthetic", "--duration", "5", "--rate", "5",
              "--faults", str(plan), *extra])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"repro {command}: {plan}: "), err
    assert reason in err, err


#: Every command that reads a trace file: (argv before the path, argv
#: after it, the command name its error line carries, the reason a file
#: without the ``# repro-trace v1`` header gets).
_NATIVE = "missing '# repro-trace v1' header"
_TRACE_READERS = {
    "run --trace": (["run", "--trace"], [], "run", _NATIVE),
    "compare --trace": (["compare", "--trace"], [], "compare", _NATIVE),
    "sweep-slack --trace": (["sweep-slack", "--trace"], [], "sweep-slack", _NATIVE),
    "serve --trace": (["serve", "--trace"], ["--control", "ctl.sock"], "serve", _NATIVE),
    "serve --replay": (["serve", "--replay"], ["--control", "ctl.sock"], "serve", _NATIVE),
    "trace-stats": (["trace-stats"], [], "trace-stats", _NATIVE),
    "trace stats": (["trace", "stats"], [], "trace stats", _NATIVE),
    "trace show": (["trace", "show"], [], "trace show", "bad trace line 1"),
    "trace import": (["trace", "import"], ["--format", "msr", "-o", "out.csv"], "trace import",
                     "expected >= 6 comma-separated fields"),
}


@pytest.mark.parametrize("reader", list(_TRACE_READERS))
@pytest.mark.parametrize("content", [None, "time,kind,extent,offset,size\n0.5,R,0,0,4096\n",
                                     "time,kind,extent,offset,size\n"],
                         ids=["missing-file", "no-header", "one-line"])
def test_unreadable_trace_file_is_one_line_exit_2(tmp_path, capsys, monkeypatch,
                                                  reader, content):
    """A trace file fails the way a ``--faults`` file does: one stderr
    line, ``repro <cmd>: <path>...: <reason>``, and exit status 2. A
    one-line file that is no event trace is refused too, not skipped as
    a torn final line."""
    before, after, command, reason = _TRACE_READERS[reader]
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "t.csv"
    if content is None:
        reason = "No such file or directory"
    else:
        path.write_text(content)
    with pytest.raises(SystemExit) as exited:
        main([*before, str(path), *after])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"repro {command}: {path}"), err
    assert reason in err, err
    assert not (tmp_path / "out.csv").exists()
