"""Tests for the serve layer (repro.serve) and the incremental runner API.

The contracts pinned here:

1. **replay identity** — a quiet ``--accel 0`` replay through the daemon
   executes the exact event sequence of the batch runner and produces a
   byte-identical result digest (the acceptance bar in docs/serve.md);
2. **online control** — mid-run ``set-goal`` / ``inject-fault`` /
   ``force-boost`` over the control socket actually change the running
   simulation, and each emits its paired audit event;
3. **graceful shutdown** — ``shutdown`` drains in-flight requests and
   finalizes the accounting; the streamed JSONL trace is strict JSON and
   line-complete;
4. **incremental stepping** — ``begin()/step()/finalize()`` compose to
   exactly ``run()``, with single-shot guards and working
   ``inject_request`` / ``set_goal`` / ``inject_faults`` hooks.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import run_single
from repro.core.hibernator import HibernatorConfig, HibernatorPolicy
from repro.faults.plan import (
    DiskFailure,
    FaultPlan,
    SlowDiskFault,
    TransientFault,
    fault_plan_from_dict,
    shift_fault_plan,
)
from repro.perf.digest import result_digest
from repro.policies.always_on import AlwaysOnPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import MAX_LINE_BYTES, ServeDaemon, run_replay_quiet
from repro.sim.engine import SimulationError
from repro.sim.request import IoKind
from repro.sim.runner import ArraySimulation
from repro.traces.model import TraceBuilder
from tests.conftest import poisson_trace


def hibernator_policy(epoch_s: float = 30.0) -> HibernatorPolicy:
    return HibernatorPolicy(HibernatorConfig(epoch_seconds=epoch_s))


def build_sim(small_config, *, goal_s=0.2, observe=False, live=False,
              trace=None, policy=None):
    if trace is None:
        trace = (TraceBuilder("live", num_extents=80).build() if live
                 else poisson_trace(rate=30.0, duration=90.0, seed=11))
    if policy is None:
        policy = hibernator_policy()
    return ArraySimulation(trace, small_config, policy, goal_s=goal_s,
                           observe=observe, live=live)


class ServeThread:
    """Run a daemon on a background thread; join on exit."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon
        self.result = None
        self.error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self.result = self.daemon.serve()
        except BaseException as exc:  # surfaced in join()
            self.error = exc

    def __enter__(self) -> "ServeThread":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        # Fail-safe: a test assertion that fires before the shutdown
        # command would otherwise leave the daemon looping forever.
        self.daemon._shutdown = True
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("serve daemon did not exit")
        if self.error is not None and exc == (None, None, None):
            raise self.error


def serving(small_config, tmp_path, *, accel=200.0, goal_s=0.2,
            observe=False, live=False, trace_out=None):
    """Daemon on a thread + connected client, as a context-manager pair."""
    sim = build_sim(small_config, goal_s=goal_s, observe=observe, live=live)
    daemon = ServeDaemon(
        sim, tmp_path / "ctl.sock",
        accel=accel,
        ingest_path=(tmp_path / "feed.sock") if live else None,
        trace_out=trace_out,
        install_signal_handlers=False,
    )
    return sim, daemon


class TestReplayIdentity:
    def test_quiet_replay_matches_batch_digest(self, small_config, tmp_path):
        trace = poisson_trace(rate=30.0, duration=120.0, seed=11)
        batch = run_single(trace, small_config, hibernator_policy(),
                           goal_s=0.2, observe=True)
        sim = ArraySimulation(trace, small_config, hibernator_policy(),
                              goal_s=0.2, observe=True)
        served = run_replay_quiet(sim, tmp_path / "ctl.sock")
        assert result_digest(served) == result_digest(batch)
        assert served.events == batch.events

    def test_quiet_replay_matches_batch_without_goal(self, small_config, tmp_path):
        trace = poisson_trace(rate=40.0, duration=60.0, seed=5)
        batch = run_single(trace, small_config, AlwaysOnPolicy())
        sim = ArraySimulation(trace, small_config, AlwaysOnPolicy())
        served = run_replay_quiet(sim, tmp_path / "ctl.sock")
        assert result_digest(served) == result_digest(batch)

    def test_streamed_trace_is_strict_json(self, small_config, tmp_path):
        out = tmp_path / "events.jsonl"
        sim = build_sim(small_config, observe=True)
        run_replay_quiet(sim, tmp_path / "ctl.sock", trace_out=out)

        def reject(const):
            raise ValueError(f"non-strict literal {const!r}")

        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line, parse_constant=reject)
        assert json.loads(lines[0])["event"] == "run_start"
        assert json.loads(lines[-1])["event"] == "run_end"


class TestCommandTable:
    """``protocol.COMMANDS`` is the one list of commands: the daemon's
    handlers and the docs table must name exactly its keys."""

    def test_daemon_handles_exactly_the_declared_commands(self):
        handlers = {name for name in dir(ServeDaemon) if name.startswith("_cmd_")}
        assert handlers == {"_cmd_" + cmd.replace("-", "_") for cmd in protocol.COMMANDS}

    def test_docs_command_table_in_sync_with_commands(self):
        doc = (Path(__file__).parent.parent / "docs" / "serve.md").read_text(
            encoding="utf-8")
        lines = doc.splitlines()
        start = lines.index("| command | effect |")
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            match = re.match(r"\| `([^`]+)` \|", line)
            assert match, f"docs/serve.md command row without a `command` cell: {line}"
            rows.append(match.group(1))
        assert sorted(rows) == sorted(protocol.COMMANDS), (
            "docs/serve.md's command table must have exactly one row per "
            f"protocol.COMMANDS key: rows {rows}, keys {list(protocol.COMMANDS)}")


class TestControlProtocol:
    def test_ping_status_round_trip(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                assert client.command("ping") == {"pong": True,
                                         "version": protocol.PROTOCOL_VERSION}
                status = client.command("status")
                assert status["mode"] == "replay"
                assert status["policy"] == "Hibernator"
                assert status["goal_s"] == 0.2
                assert status["trace_remaining"] >= 0
                assert "sim" in status["metrics"] and "policy" in status["metrics"]
                client.command("shutdown")

    def test_unknown_and_malformed_commands_rejected(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                bad = client.request({"cmd": "explode"})
                assert bad["ok"] is False and "unknown command" in bad["error"]
                with pytest.raises(protocol.ProtocolError):
                    client.command("set-goal")  # missing goal_s
                # The daemon survives garbage and keeps serving.
                assert client.command("ping")["pong"] is True
                client.command("shutdown")

    def test_set_goal_mid_run_changes_deficit_tracking(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, observe=True)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                changed = client.command("set-goal", goal_s=0.05)
                assert changed == {"old_goal_s": 0.2, "goal_s": 0.05}
                assert client.command("status")["goal_s"] == 0.05
                cleared = client.command("set-goal", goal_s=None)
                assert cleared == {"old_goal_s": 0.05, "goal_s": None}
                client.command("shutdown")
        kinds = [e.kind for e in st.result.events]
        assert kinds.count("serve_goal_changed") == 2
        assert st.result.goal_s is None

    def test_set_goal_creates_boost_machinery_from_none(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, goal_s=None)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                assert sim.policy.boost is None
                client.command("set-goal", goal_s=0.1)
                assert sim.deficit is not None
                assert sim.policy.boost is not None
                client.command("shutdown")

    def test_force_boost(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, observe=True)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                first = client.command("force-boost")
                assert first == {"entered": True}
                # Already boosted: a second force is a no-op, not an error.
                assert client.command("force-boost") == {"entered": False}
                client.command("shutdown")
        assert "serve_boost_forced" in [e.kind for e in st.result.events]
        assert st.result.extras.get("boosts", 0) >= 1

    def test_inject_fault_mid_run(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, observe=True)
        plan = {"seed": 5, "retry": {"max_attempts": 4, "backoff_s": 0.002},
                "transient_faults": [
                    {"start_s": 0.0, "end_s": 30.0, "probability": 0.5,
                     "disks": [0, 1]}]}
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                injected = client.command("inject-fault", plan=plan)
                assert injected["transient_faults"] == 1
                client.command("shutdown")
        kinds = [e.kind for e in st.result.events]
        assert "serve_fault_injected" in kinds
        # The fault-run extras only appear when an injector was installed.
        assert "fault_op_errors" in st.result.extras

    def test_client_refuses_to_send_non_finite_floats(self, small_config, tmp_path):
        """A NaN goal must not go out as ``"goal_s": null``, which clears
        the goal: the client raises before sending anything."""
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                for bad in (float("nan"), float("inf")):
                    with pytest.raises(ValueError):
                        client.command("set-goal", goal_s=bad)
                # Nothing was sent: the next reply answers the next
                # request, and the goal is the one the run started with.
                assert client.command("status")["goal_s"] == 0.2
                client.command("shutdown")

    def test_replies_null_non_finite_floats(self):
        reply = protocol.ok_response({"p95_s": float("nan"), "rates": [float("inf"), 1.0]})
        assert reply == {"ok": True, "data": {"p95_s": None, "rates": [None, 1.0]}}
        assert b"NaN" not in protocol.encode_line(reply)

    def test_empty_plan_rejected(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                with pytest.raises(protocol.ProtocolError, match="injects nothing"):
                    client.command("inject-fault", plan={"seed": 1})
                client.command("shutdown")


def _lines_until_eof(sock: socket.socket, want: int) -> tuple[list[bytes], bool]:
    """Complete lines read until ``want`` arrive or the daemon closes.

    Returns (lines, closed). A connection left open with lines missing
    hits the socket timeout and fails the calling test.
    """
    data = b""
    while data.count(b"\n") < want:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return data.split(b"\n")[:-1], True
        data += chunk
    return data.split(b"\n")[:-1], False


def _raw_connection(path) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(str(path))
    return sock


class TestMisbehavingClients:
    def test_overlong_line_gets_one_error_then_eof(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as other:
                with _raw_connection(tmp_path / "ctl.sock") as sock:
                    sock.sendall(b"x" * (MAX_LINE_BYTES + 1))  # no newline, ever
                    lines, closed = _lines_until_eof(sock, want=2)
                assert closed and len(lines) == 1
                reply = protocol.decode_line(lines[0])
                assert reply["ok"] is False and "longer than" in reply["error"]
                # The daemon keeps serving everyone else.
                assert other.command("ping")["pong"] is True
                other.command("shutdown")

    def test_pipelined_client_gets_every_reply_or_eof(self, small_config, tmp_path):
        """400 requests sent before reading overflow the socket buffer;
        the replies that do not fit must end in EOF, not vanish."""
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                with _raw_connection(tmp_path / "ctl.sock") as sock:
                    sock.sendall(protocol.encode_line({"cmd": "status"}) * 400)
                    # Not reading yet lets the daemon's replies fill the
                    # socket buffer; reading at once would hide the gap.
                    time.sleep(0.3)
                    lines, closed = _lines_until_eof(sock, want=400)
                assert closed or len(lines) == 400
                assert all(protocol.decode_line(line)["ok"] for line in lines)
                client.command("shutdown")



def _begun_daemon(small_config, tmp_path, *, live=False):
    """A daemon whose sim has begun but whose loop never runs, so its
    handlers can be driven one line at a time."""
    sim, daemon = serving(small_config, tmp_path, live=live)
    sim.begin()
    return sim, daemon


#: An integer literal no float can hold; float() on it raises OverflowError.
_BIG_INT = "1" + "0" * 400

_TRANSIENT_PLAN = ('{"transient_faults": [{"start_s": 0.0, "end_s": 10.0, '
                   '"probability": 0.5}]}')


class TestMalformedControlInput:
    def test_nan_goal_is_refused_and_the_connection_lives_on(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path)
        with ServeThread(daemon):
            # The client's connect retries until the daemon is listening.
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                with _raw_connection(tmp_path / "ctl.sock") as sock:
                    sock.sendall(b'{"cmd": "set-goal", "goal_s": NaN}\n')
                    lines, closed = _lines_until_eof(sock, want=1)
                    assert not closed
                    reply = protocol.decode_line(lines[0])
                    assert reply["ok"] is False and "NaN" in reply["error"]
                    sock.sendall(protocol.encode_line({"cmd": "ping"}))
                    lines, closed = _lines_until_eof(sock, want=1)
                    assert protocol.decode_line(lines[0])["data"]["pong"] is True
                assert client.command("status")["goal_s"] == 0.2
                client.command("shutdown")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_decode_rejects_non_finite_literals(self, literal):
        with pytest.raises(protocol.ProtocolError, match="not strict JSON"):
            protocol.decode_line(f'{{"cmd": "set-goal", "goal_s": {literal}}}')

    @pytest.mark.parametrize("goal", ["true", "1e400", "0", "-0.5", '"0.5"'],
                             ids=["bool", "overflow-float", "zero", "negative", "string"])
    def test_goal_must_be_a_finite_positive_number(self, small_config, tmp_path, goal):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        reply = daemon._dispatch(f'{{"cmd": "set-goal", "goal_s": {goal}}}'.encode())
        assert reply["ok"] is False and "goal_s must be" in reply["error"]
        assert sim.goal_s == 0.2

    @pytest.mark.parametrize("line, allowed", [
        ('{"cmd": "set-goal", "goal_s": 0.5, "goal_ms": 5}', "goal_s"),
        ('{"cmd": "inject-fault", "plan": %s, "relativ": false}' % _TRANSIENT_PLAN,
         "plan, relative"),
        ('{"cmd": "ping", "verbose": true}', "none"),
    ], ids=["set-goal-goal_ms", "inject-fault-relativ", "ping-verbose"])
    def test_undeclared_fields_are_rejected(self, small_config, tmp_path, line, allowed):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        reply = daemon._dispatch(line.encode())
        assert reply["ok"] is False
        assert f"allowed fields: {allowed}" in reply["error"]
        assert sim.goal_s == 0.2 and sim.injector is None

    @pytest.mark.parametrize("relative", ['"no"', "0", "null"])
    def test_relative_must_be_a_json_bool(self, small_config, tmp_path, relative):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        line = '{"cmd": "inject-fault", "plan": %s, "relative": %s}' % (_TRANSIENT_PLAN, relative)
        reply = daemon._dispatch(line.encode())
        assert reply["ok"] is False and "relative must be" in reply["error"]
        assert sim.injector is None

    @pytest.mark.parametrize("line", [
        '{"cmd": "set-goal", "goal_s": %s}' % _BIG_INT,
        '{"cmd": "inject-fault", "plan": {"disk_failures": [{"time_s": %s, "disk": 0}]}}' % _BIG_INT,
    ], ids=["goal", "fault-time"])
    def test_integer_beyond_float_range_is_refused(self, small_config, tmp_path, line):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        reply = daemon._dispatch(line.encode())
        assert reply["ok"] is False and "too large" in reply["error"]
        assert sim.goal_s == 0.2 and sim.injector is None


#: Refused for its seed alone; the disk-1 failure and the window would
#: otherwise be valid.
_REFUSED_SEED_LINE = (
    '{"cmd": "inject-fault", "plan": {"seed": -1, '
    '"disk_failures": [{"time_s": 5.0, "disk": 1}], '
    '"transient_faults": [{"start_s": 0.0, "end_s": 10.0, "probability": 0.5}]}}'
)

_WINDOW = {"start_s": 0.0, "end_s": 10.0, "probability": 0.5}
_FAILURE = {"time_s": 5.0, "disk": 1}


class TestRefusedFaultPlans:
    """An ``inject-fault`` answered ``ok: false`` leaves the run as it
    was: no injector, no fault state, no scheduled failure."""

    def test_refused_plan_installs_nothing(self, small_config, tmp_path):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        pending = sim.engine.pending_events
        reply = daemon._dispatch(_REFUSED_SEED_LINE.encode())
        assert reply["ok"] is False and "seed" in reply["error"]
        assert sim.injector is None
        assert all(disk.fault_state is None for disk in sim.array.disks)
        assert sim.engine.pending_events == pending

    def test_plan_after_a_refused_one_runs_under_its_own_settings(self, small_config, tmp_path):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        assert daemon._dispatch(_REFUSED_SEED_LINE.encode())["ok"] is False
        plan = {"disk_failures": [{"time_s": 5.0, "disk": 2}], "rebuild": False,
                "retry": {"max_attempts": 2, "backoff_s": 0.001}}
        reply = daemon._dispatch(protocol.encode_line({"cmd": "inject-fault", "plan": plan}))
        assert reply["ok"] is True, reply
        assert sim.injector.plan == fault_plan_from_dict(plan)
        while sim.step(max_events=4096):
            pass
        sim.finalize()
        # Only the accepted plan's disk failed, and under its own
        # rebuild setting (off), not the refused plan's default (on).
        assert sim.array.failed_disks == {2}
        assert sim.injector.rebuild_manager is None

    @pytest.mark.parametrize("plan, field", [
        ({"seed": 3.7, "transient_faults": [_WINDOW]}, "seed"),
        ({"seed": True, "transient_faults": [_WINDOW]}, "seed"),
        ({"seed": -1, "transient_faults": [_WINDOW]}, "seed"),
        ({"disk_failures": [{"time_s": 5.0, "disk": 1.9}]}, "disk"),
        ({"disk_failures": [{"time_s": 5.0, "disk": True}]}, "disk"),
        ({"transient_faults": [dict(_WINDOW, disks=[0.5])]}, "disks"),
        ({"rebuild_max_inflight": 2.5, "disk_failures": [_FAILURE]}, "rebuild_max_inflight"),
        ({"rebuild_max_inflight": True, "disk_failures": [_FAILURE]}, "rebuild_max_inflight"),
        ({"rebuild": "no", "disk_failures": [_FAILURE]}, "rebuild"),
        ({"rebuild": 0, "disk_failures": [_FAILURE]}, "rebuild"),
        ({"disk_failures": [{"time_s": True, "disk": 1}]}, "time_s"),
        ({"transient_faults": [dict(_WINDOW, start_s="1")]}, "start_s"),
        ({"transient_faults": [dict(_WINDOW, probability=True)]}, "probability"),
        ({"retry": {"max_attempts": 2.5}, "disk_failures": [_FAILURE]}, "max_attempts"),
        ({"retry": {"max_attempts": True}, "disk_failures": [_FAILURE]}, "max_attempts"),
    ], ids=["seed-float", "seed-bool", "seed-negative", "disk-float", "disk-bool",
            "window-disk-float", "inflight-float", "inflight-bool", "rebuild-string",
            "rebuild-int", "time-bool", "start-string", "probability-bool",
            "attempts-float", "attempts-bool"])
    def test_plan_fields_are_checked_not_coerced(self, small_config, tmp_path, plan, field):
        sim, daemon = _begun_daemon(small_config, tmp_path)
        reply = daemon._dispatch(protocol.encode_line({"cmd": "inject-fault", "plan": plan}))
        assert reply["ok"] is False and field in reply["error"]
        assert sim.injector is None

    def test_refused_runtime_plan_changes_nothing(self, small_config):
        """Both injector paths (the first plan's install, a later
        plan's add_plan) check the whole plan before applying any of it."""
        sim = build_sim(small_config)
        sim.begin()
        sim.step(max_events=500)
        num_disks = sim.array.num_disks
        everywhere = TransientFault(start_s=0.0, end_s=1e9, probability=0.5)
        pending = sim.engine.pending_events
        with pytest.raises(ValueError, match="array has"):
            sim.inject_faults(FaultPlan(
                transient_faults=(everywhere,),
                disk_failures=(DiskFailure(time_s=sim.engine.now + 1.0, disk=num_disks),),
            ))
        assert sim.injector is None
        assert all(disk.fault_state is None for disk in sim.array.disks)
        assert sim.engine.pending_events == pending

        sim.inject_faults(FaultPlan(transient_faults=(
            TransientFault(start_s=0.0, end_s=1e9, probability=0.1, disks=(0,)),)))
        injector, state = sim.injector, sim.array.disks[0].fault_state
        windows = state._transients
        pending = sim.engine.pending_events
        with pytest.raises(ValueError, match="array has"):
            sim.inject_faults(FaultPlan(
                transient_faults=(everywhere,),
                slow_disk_faults=(SlowDiskFault(start_s=0.0, end_s=1.0, factor=2.0,
                                                disks=(num_disks,)),),
            ))
        assert sim.injector is injector and state._transients == windows
        assert all(disk.fault_state is None for disk in sim.array.disks[1:])
        assert sim.engine.pending_events == pending


class TestMalformedIngestInput:
    @pytest.mark.parametrize("line", [
        '{"extent": 3.7}',
        '{"extent": true}',
        '{"extent": "3"}',
        '{"extent": 1, "size": 4096.9}',
        '{"extent": 1, "offset": 1.5}',
        '{"extent": 1, "size": false}',
    ], ids=["extent-float", "extent-bool", "extent-string", "size-float",
            "offset-float", "size-bool"])
    def test_ingest_fields_must_be_json_integers(self, small_config, tmp_path, line):
        sim, daemon = _begun_daemon(small_config, tmp_path, live=True)
        reply = daemon._ingest_line(line.encode())
        assert reply["ok"] is False and "must be an integer" in reply["error"]
        assert daemon.ingested == 0 and daemon.ingest_errors == 1

    @pytest.mark.parametrize("fields", [
        '"size": %s' % _BIG_INT,
        '"size": %d' % (2**62),
        '"size": 0',
        '"offset": -1',
        '"offset": %d' % (1 << 20),
        '"offset": %d, "size": 4096' % ((1 << 20) - 4095),
    ], ids=["size-beyond-float", "size-beyond-extent", "size-zero",
            "offset-negative", "offset-past-extent", "straddles-extent-end"])
    def test_request_outside_one_extent_is_refused_before_admission(
            self, small_config, tmp_path, fields):
        sim, daemon = _begun_daemon(small_config, tmp_path, live=True)
        size_n = sim.policy._size_n
        reply = daemon._ingest_line(f'{{"extent": 1, {fields}}}'.encode())
        assert reply["ok"] is False and "inside one 1048576-byte extent" in reply["error"]
        # Nothing of the refused request reached the simulation: no
        # outstanding count the shutdown drain would wait on for ever,
        # no sample in the policy's size statistics.
        assert sim.outstanding == 0 and sim.injected_requests == 0
        assert sim.policy._size_n == size_n
        assert daemon.ingested == 0 and daemon.ingest_errors == 1
        # A well-formed request still goes through afterwards.
        assert daemon._ingest_line(b'{"extent": 1, "size": 4096}')["ok"] is True
        assert sim.outstanding == 1 and sim.policy._size_n == size_n + 1

    def test_refused_request_leaves_shutdown_working(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, accel=500.0, live=True)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "feed.sock") as feed:
                assert feed.request({"extent": 1, "size": 10**400})["ok"] is False
                assert feed.request({"extent": 1, "size": 4096})["ok"] is True
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                client.command("shutdown")
        # Leaving ServeThread joined the daemon (it raises if the drain
        # never finishes): only the accepted request was served.
        assert st.result.num_requests == 1 and sim.outstanding == 0


class TestShutdownDrains:
    def test_shutdown_drains_in_flight_and_finalizes(self, small_config, tmp_path):
        # A tiny accel keeps nearly the whole trace unserved at shutdown
        # time, so the drain path has real in-flight work to finish.
        sim, daemon = serving(small_config, tmp_path, accel=5.0)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                client.command("shutdown")
        result = st.result
        assert result is not None
        assert sim.outstanding == 0
        assert result.num_requests == sim.latency.n
        # run_end bookkeeping happened: energy covers the full window.
        assert result.sim_end > 0 and result.energy_joules > 0

    def test_trace_file_line_complete_after_shutdown(self, small_config, tmp_path):
        out = tmp_path / "events.jsonl"
        sim, daemon = serving(small_config, tmp_path, accel=50.0,
                              observe=True, trace_out=out)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                client.command("set-goal", goal_s=0.1)
                client.command("shutdown")
        payload = [json.loads(line) for line in out.read_text().splitlines()]
        assert payload[0]["event"] == "run_start"
        assert payload[-1]["event"] == "run_end"
        assert any(p["event"] == "serve_goal_changed" for p in payload)
        assert len(payload) == len(st.result.events)


class TestLiveMode:
    def test_ingest_and_graceful_end(self, small_config, tmp_path):
        sim, daemon = serving(small_config, tmp_path, accel=500.0, live=True)
        with ServeThread(daemon) as st:
            with ServeClient.connect(tmp_path / "feed.sock") as feed:
                for i in range(10):
                    reply = feed.request({"kind": "read", "extent": i, "size": 4096})
                    assert reply["ok"] is True, reply
                    assert reply["data"]["req_id"] == i
                bad = feed.request({"kind": "read", "extent": 10_000})
                assert bad["ok"] is False and "extent" in bad["error"]
            with ServeClient.connect(tmp_path / "ctl.sock") as client:
                status = client.command("status")
                assert status["mode"] == "live" and status["ingested"] == 10
                client.command("shutdown")
        assert st.result.num_requests == 10
        assert daemon.ingest_errors == 1

    def test_live_mode_validation(self, small_config, tmp_path):
        live_sim = build_sim(small_config, live=True)
        with pytest.raises(ValueError, match="accel > 0"):
            ServeDaemon(live_sim, tmp_path / "c.sock", accel=0.0,
                        ingest_path=tmp_path / "f.sock")
        with pytest.raises(ValueError, match="ingest"):
            ServeDaemon(live_sim, tmp_path / "c.sock", accel=10.0)
        with pytest.raises(ValueError, match=">= 0"):
            ServeDaemon(build_sim(small_config), tmp_path / "c.sock", accel=-1.0)


class TestIncrementalRunner:
    def test_begin_step_finalize_equals_run(self, small_config):
        trace = poisson_trace(rate=30.0, duration=60.0, seed=9)
        batch = run_single(trace, small_config, hibernator_policy(), goal_s=0.2)
        sim = ArraySimulation(trace, small_config, hibernator_policy(), goal_s=0.2)
        sim.begin()
        while sim.step(max_events=512):
            pass
        stepped = sim.finalize()
        assert result_digest(stepped) == result_digest(batch)

    def test_single_shot_guards(self, small_config):
        sim = build_sim(small_config)
        sim.begin()
        with pytest.raises(RuntimeError, match="single-shot"):
            sim.begin()
        while sim.step(max_events=4096):
            pass
        sim.finalize()
        with pytest.raises(RuntimeError, match="single-shot"):
            sim.finalize()
        fresh = build_sim(small_config)
        with pytest.raises(RuntimeError, match="before begin"):
            fresh.finalize()

    def test_step_after_drain_is_noop(self, small_config):
        sim = build_sim(small_config)
        sim.begin()
        while sim.step(max_events=4096):
            pass
        assert sim.drain_complete
        assert sim.step(max_events=128) == 0

    def test_inject_request_validation(self, small_config):
        sim = build_sim(small_config, live=True)
        sim.begin()
        req = sim.inject_request(kind=IoKind.READ, extent=3)
        assert req == 0
        with pytest.raises(ValueError):
            sim.inject_request(kind=IoKind.READ, extent=99999)
        with pytest.raises(ValueError):
            sim.inject_request(kind=IoKind.READ, extent=0, size=0)
        sim.halt_arrivals()
        with pytest.raises(RuntimeError, match="halted"):
            sim.inject_request(kind=IoKind.READ, extent=0)

    def test_set_goal_validation(self, small_config):
        sim = build_sim(small_config)
        sim.begin()
        with pytest.raises(ValueError):
            sim.set_goal(-1.0)
        sim.set_goal(0.5)
        assert sim.goal_s == 0.5 and sim.deficit is not None
        sim.set_goal(None)
        assert sim.goal_s is None and sim.deficit is None


class TestMutatorsBetweenSteps:
    """The online mutators apply between ``step()`` calls, as the daemon
    makes them. Called from inside an engine callback (a policy hook, a
    timer) they raise instead of making the run depend on event order."""

    @pytest.mark.parametrize("mutate", [
        lambda sim: sim.set_goal(0.5),
        lambda sim: sim.inject_request(kind=IoKind.READ, extent=3),
        lambda sim: sim.inject_faults(FaultPlan(transient_faults=(
            TransientFault(start_s=0.0, end_s=1e9, probability=0.5),))),
        lambda sim: sim.policy.force_boost(sim.engine.now),
    ], ids=["set_goal", "inject_request", "inject_faults", "force_boost"])
    def test_mutator_raises_inside_an_engine_callback(self, small_config, mutate):
        sim = build_sim(small_config)
        sim.begin()
        sim.step(max_events=500)
        injected, boosted = sim.injected_requests, sim.policy.boost.boosted
        sim.engine.schedule(sim.engine.now, mutate, sim)
        with pytest.raises(SimulationError, match="between step"):
            sim.step()
        assert not sim.engine.dispatching
        assert sim.goal_s == 0.2 and sim.injector is None
        assert sim.injected_requests == injected
        assert sim.policy.boost.boosted == boosted
        # Between steps the same call goes through.
        mutate(sim)


class TestFaultPlanShifting:
    def test_shift_rebases_all_times(self):
        plan = fault_plan_from_dict({
            "seed": 3,
            "disk_failures": [{"time_s": 5.0, "disk": 0}],
            "transient_faults": [
                {"start_s": 1.0, "end_s": 4.0, "probability": 0.2}],
            "slow_disk_faults": [
                {"start_s": 2.0, "end_s": 6.0, "factor": 3.0}],
        })
        shifted = shift_fault_plan(plan, 100.0)
        assert shifted.disk_failures[0].time_s == 105.0
        assert (shifted.transient_faults[0].start_s,
                shifted.transient_faults[0].end_s) == (101.0, 104.0)
        assert (shifted.slow_disk_faults[0].start_s,
                shifted.slow_disk_faults[0].end_s) == (102.0, 106.0)
        # Zero offset and empty plans pass through untouched.
        assert shift_fault_plan(plan, 0.0) is plan
        empty = FaultPlan()
        assert shift_fault_plan(empty, 50.0) is empty
        with pytest.raises(ValueError):
            shift_fault_plan(plan, -1.0)

    def test_runtime_injection_rejects_past_times(self, small_config):
        sim = build_sim(small_config)
        sim.begin()
        sim.step(max_events=2000)
        now = sim.engine.now
        assert now > 0
        past = fault_plan_from_dict(
            {"disk_failures": [{"time_s": now / 2, "disk": 0}]})
        with pytest.raises(ValueError, match="past"):
            sim.inject_faults(past)
        # Transient windows already partly elapsed are fine: the injector
        # only consults them per-op against the current clock.
        stale = FaultPlan(transient_faults=(
            TransientFault(start_s=0.0, end_s=now / 2, probability=0.1),))
        sim.inject_faults(stale)
