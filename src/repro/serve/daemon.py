"""The ``repro serve`` daemon: one simulation, driven online.

Single-threaded by design. One selector loop interleaves three duties:

* **advancing the simulation** — replay mode steps the engine through
  the pre-loaded trace (flat out at ``accel=0``, paced against the wall
  clock at ``accel>0``); live mode fast-forwards simulated time to
  ``elapsed_wall * accel`` so epoch boundaries and idle timers fire in
  wall time while requests arrive over the ingest socket;
* **the control socket** — newline-delimited JSON commands
  (:mod:`repro.serve.protocol`; docs/serve.md lists them), each handled
  by the ``_cmd_*`` method its name maps to;
* **the ingest socket** (live mode) — one JSON request per line,
  submitted to the array the moment it is read.

Shutdown — command, SIGINT or SIGTERM — is always graceful: arrivals
stop, in-flight requests drain, the result is finalized (``run_end``
emitted), and the JSONL event trace is flushed line-complete to disk.

Determinism: at ``accel=0`` the loop only ever calls
``sim.step(max_events=N)`` — no wall-derived ``until`` horizon — so the
executed event sequence is byte-identical to the batch runner's
one-shot ``run()`` and so is the result digest. Wall-clock pacing
(``accel>0``, live mode) is inherently nondeterministic and documented
as such in docs/serve.md.
"""

from __future__ import annotations

import selectors
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Any

from repro.faults.plan import fault_plan_from_dict, shift_fault_plan
from repro.obs.events import ServeBoostForced, ServeFaultInjected, ServeGoalChanged
from repro.obs.tracelog import JsonlWriter
from repro.serve import protocol
from repro.sim.request import IoKind
from repro.sim.runner import ArraySimulation, SimulationResult

#: Engine events executed between control polls in as-fast-as-possible
#: replay. Large enough that stepping overhead vanishes, small enough
#: that a waiting control client gets an answer within milliseconds.
_REPLAY_CHUNK = 4096

#: Selector timeout when the daemon has nothing urgent to do.
_IDLE_POLL_S = 0.05

#: Longest line a client may send. A longer one, complete or not, gets a
#: protocol error and the connection is closed, so a client that never
#: sends a newline cannot grow the daemon's memory without bound.
MAX_LINE_BYTES = 1 << 20


class _LineConn:
    """One accepted connection with line-buffered reads."""

    __slots__ = ("sock", "buffer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def read_lines(self) -> list[bytes] | None:
        """Drain readable bytes; returns complete lines, or None on EOF.

        Raises :class:`~repro.serve.protocol.ProtocolError` once a line
        grows past :data:`MAX_LINE_BYTES`.
        """
        try:
            chunk = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError:
            return None
        if not chunk:
            return None
        *lines, self.buffer = (self.buffer + chunk).split(b"\n")
        if len(self.buffer) > MAX_LINE_BYTES or any(len(line) > MAX_LINE_BYTES for line in lines):
            raise protocol.ProtocolError(f"line longer than {MAX_LINE_BYTES} bytes")
        return lines

    def send(self, payload: bytes) -> bool:
        """Write one reply; False when the peer is gone or not reading
        fast enough for the non-blocking socket."""
        try:
            self.sock.sendall(payload)
        except OSError:
            return False
        return True


class ServeDaemon:
    """Drives one :class:`ArraySimulation` behind a control socket.

    Args:
        sim: a fully built, un-begun simulation. Replay mode uses the
            trace it was built with; live mode (``sim.live``) expects an
            empty trace and an ingest socket.
        control_path: filesystem path for the AF_UNIX control socket.
        accel: simulated seconds advanced per wall-clock second. 0 means
            as-fast-as-possible replay (deterministic); live mode
            requires ``accel > 0`` (there is no trace to outrun).
        ingest_path: AF_UNIX path for the live request feed; required in
            live mode, ignored in replay.
        trace_out: JSONL path for the streamed event trace (only useful
            when the sim was built with ``observe=True``).
        exit_on_drain: leave the serve loop as soon as the replay
            workload drains instead of waiting for a shutdown command —
            the batch-like usage the golden test and CI smoke drive.
        install_signal_handlers: hook SIGINT/SIGTERM for graceful
            shutdown. Default: only when running on the main thread
            (the test suite serves from a background thread, where
            ``signal.signal`` raises).
    """

    def __init__(
        self,
        sim: ArraySimulation,
        control_path: str | Path,
        *,
        accel: float = 0.0,
        ingest_path: str | Path | None = None,
        trace_out: str | Path | None = None,
        exit_on_drain: bool = False,
        install_signal_handlers: bool | None = None,
    ) -> None:
        if accel < 0:
            raise ValueError(f"accel must be >= 0, got {accel}")
        if sim.live and accel <= 0:
            raise ValueError("live mode needs accel > 0 (wall-clock pacing)")
        if sim.live and ingest_path is None:
            raise ValueError("live mode needs an ingest socket path")
        self.sim = sim
        self.control_path = Path(control_path)
        self.ingest_path = Path(ingest_path) if ingest_path is not None else None
        self.accel = accel
        self.exit_on_drain = exit_on_drain
        self.result: SimulationResult | None = None
        self.ingested = 0
        self.ingest_errors = 0
        self._writer = JsonlWriter(trace_out) if trace_out is not None else None
        self._event_ptr = 0
        self._shutdown = False
        self._selector: selectors.BaseSelector | None = None
        if install_signal_handlers is None:
            install_signal_handlers = threading.current_thread() is threading.main_thread()
        self._install_signals = install_signal_handlers

    @property
    def trace_lines(self) -> int:
        """JSONL event lines streamed to ``trace_out`` so far."""
        return self._writer.lines if self._writer is not None else 0

    # -- lifecycle -----------------------------------------------------------

    def serve(self) -> SimulationResult:
        """Run to completion; returns the finalized result."""
        previous: dict[int, Any] = {}
        if self._install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, self._on_signal)
        control = self._listen(self.control_path)
        ingest = self._listen(self.ingest_path) if self.ingest_path is not None else None
        self._selector = selectors.DefaultSelector()
        self._selector.register(control, selectors.EVENT_READ, ("accept", "control"))
        if ingest is not None:
            self._selector.register(ingest, selectors.EVENT_READ, ("accept", "ingest"))
        try:
            self.sim.begin()
            self._stream_events()
            wall_start = time.perf_counter()
            while not self._shutdown:
                busy = self._advance(time.perf_counter() - wall_start)
                self._stream_events()
                if self.exit_on_drain and not self.sim.live and self.sim.drain_complete:
                    break
                self._poll(0.0 if busy else _IDLE_POLL_S)
            return self._finish()
        finally:
            self._selector.close()
            self._selector = None
            control.close()
            self._unlink(self.control_path)
            if ingest is not None:
                ingest.close()
                self._unlink(self.ingest_path)
            if self._writer is not None:
                self._writer.close()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _finish(self) -> SimulationResult:
        """Graceful end: no new work, drain in-flight, close the books."""
        self.sim.halt_arrivals()
        self.sim.drain_in_flight()
        self.result = self.sim.finalize()
        self._stream_events()
        if self._writer is not None:
            self._writer.close()
        return self.result

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._shutdown = True

    # -- pacing --------------------------------------------------------------

    def _advance(self, elapsed_wall_s: float) -> bool:
        """Advance the simulation one slice; True = more work is urgent."""
        sim = self.sim
        if self.accel == 0.0:
            # Deterministic replay: fixed-size event chunks, no
            # wall-derived horizon, so the simulated clock moves exactly
            # as the batch runner's would.
            if sim.drain_complete:
                return False
            sim.step(max_events=_REPLAY_CHUNK)
            return not sim.drain_complete
        # Wall-clock pacing: sim time tracks elapsed_wall * accel. In
        # live mode the clock may fast-forward through idle stretches so
        # periodic machinery keeps firing; replay keeps batch stop
        # semantics (the run ends where the accounting window ends).
        target = elapsed_wall_s * self.accel
        sim.step(until=target, stop_on_drain=not sim.live)
        return False

    # -- socket plumbing -----------------------------------------------------

    @staticmethod
    def _unlink(path: Path | None) -> None:
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass

    def _listen(self, path: Path) -> socket.socket:
        self._unlink(path)  # stale socket from a crashed predecessor
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.bind(str(path))
        sock.listen(8)
        return sock

    def _poll(self, timeout_s: float) -> None:
        assert self._selector is not None
        for key, _ in self._selector.select(timeout_s):
            tag, role = key.data
            if tag == "accept":
                self._accept(key.fileobj, role)  # type: ignore[arg-type]
            else:
                self._service(key.fileobj, role, tag)  # type: ignore[arg-type]

    def _accept(self, server: socket.socket, role: str) -> None:
        assert self._selector is not None
        try:
            sock, _ = server.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _LineConn(sock)
        self._selector.register(sock, selectors.EVENT_READ, (conn, role))

    def _drop(self, sock: socket.socket) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(sock)
        except KeyError:
            pass
        sock.close()

    def _service(self, sock: socket.socket, role: str, conn: _LineConn) -> None:
        try:
            lines = conn.read_lines()
        except protocol.ProtocolError as exc:
            conn.send(protocol.encode_line(protocol.error_response(str(exc))))
            self._drop(sock)
            return
        if lines is None:
            self._drop(sock)
            return
        for line in lines:
            if not line.strip():
                continue
            if role == "control":
                reply = self._dispatch(line)
            else:
                reply = self._ingest_line(line)
            if not conn.send(protocol.encode_line(reply)):
                # A reply that cannot be written is never silently lost:
                # closing makes the client see EOF instead of a gap.
                self._drop(sock)
                return
            if self._shutdown:
                break

    # -- control commands ----------------------------------------------------

    def _dispatch(self, line: bytes) -> dict[str, Any]:
        try:
            request = protocol.decode_line(line)
            cmd = protocol.request_command(request)
            handler = getattr(self, "_cmd_" + cmd.replace("-", "_"))
            return protocol.ok_response(handler(request))
        except KeyError as exc:
            return protocol.error_response(f"missing key {exc}")
        except (protocol.ProtocolError, ValueError, TypeError, OverflowError) as exc:
            # OverflowError: an integer literal too large for a float
            # (say a 400-digit goal or fault time) reaching float().
            return protocol.error_response(str(exc))

    def _cmd_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "version": protocol.PROTOCOL_VERSION}

    def _cmd_status(self, request: dict[str, Any]) -> dict[str, Any]:
        sim = self.sim
        return {
            "sim_time_s": sim.engine.now,
            "events_executed": sim.engine.events_executed,
            "mode": "live" if sim.live else "replay",
            "accel": self.accel,
            "trace_name": sim.trace.name,
            "policy": sim.policy.name,
            "goal_s": sim.goal_s,
            "assignment": sim.policy.current_assignment(),
            "served": sim.latency.n,
            "failed": sim.failed_requests,
            "outstanding": sim.outstanding,
            "trace_remaining": sim.trace_remaining,
            "ingested": self.ingested,
            "drained": sim.drain_complete,
            "metrics": {
                "sim": sim.metrics.snapshot(),
                "policy": sim.policy.metrics.snapshot(),
            },
        }

    def _cmd_set_goal(self, request: dict[str, Any]) -> dict[str, Any]:
        if "goal_s" not in request:
            raise protocol.ProtocolError("set-goal needs a 'goal_s' (number or null)")
        goal = request["goal_s"]
        new = None if goal is None else protocol.finite_goal(goal, "goal_s")
        old = self.sim.goal_s
        self.sim.set_goal(new)
        if self.sim.emit is not None:
            self.sim.emit(ServeGoalChanged(
                time=self.sim.engine.now, old_goal_s=old, new_goal_s=new,
            ))
        return {"old_goal_s": old, "goal_s": new}

    def _cmd_inject_fault(self, request: dict[str, Any]) -> dict[str, Any]:
        plan_data = request.get("plan")
        if not isinstance(plan_data, dict):
            raise protocol.ProtocolError("inject-fault needs a 'plan' object")
        plan = fault_plan_from_dict(plan_data)
        if plan.empty:
            raise protocol.ProtocolError("inject-fault plan injects nothing")
        relative = request.get("relative", True)
        if not isinstance(relative, bool):
            raise protocol.ProtocolError(f"relative must be true or false, got {relative!r}")
        if relative:
            plan = shift_fault_plan(plan, self.sim.engine.now)
        self.sim.inject_faults(plan)
        if self.sim.emit is not None:
            self.sim.emit(ServeFaultInjected(
                time=self.sim.engine.now,
                disk_failures=len(plan.disk_failures),
                transient_faults=len(plan.transient_faults),
                slow_disk_faults=len(plan.slow_disk_faults),
            ))
        return {
            "disk_failures": len(plan.disk_failures),
            "transient_faults": len(plan.transient_faults),
            "slow_disk_faults": len(plan.slow_disk_faults),
        }

    def _cmd_force_boost(self, request: dict[str, Any]) -> dict[str, Any]:
        entered = self.sim.policy.force_boost(self.sim.engine.now)
        if self.sim.emit is not None:
            self.sim.emit(ServeBoostForced(time=self.sim.engine.now, entered=entered))
        return {"entered": entered}

    def _cmd_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self._shutdown = True
        return {"stopping": True}

    # -- live ingest ---------------------------------------------------------

    def _ingest_line(self, line: bytes) -> dict[str, Any]:
        try:
            data = protocol.decode_line(line)
            if not self.sim.live:
                raise protocol.ProtocolError("replay mode does not accept requests")
            kind_raw = data.get("kind", "read")
            if kind_raw in ("read", "r"):
                kind = IoKind.READ
            elif kind_raw in ("write", "w"):
                kind = IoKind.WRITE
            else:
                raise protocol.ProtocolError(f"bad kind {kind_raw!r} (read|write)")
            extent = _int_field(data["extent"], "extent")
            offset = _int_field(data.get("offset", 0), "offset")
            size = _int_field(data.get("size", 4096), "size")
            # Checked here, before inject_request touches any state: the
            # policy folds ``size`` into float statistics on arrival (a
            # 400-digit size would raise there, half-admitted), and a
            # size of 2**62 keeps one disk busy for ~1e10 simulated
            # seconds, so the shutdown drain would never finish.
            extent_bytes = self.sim.array.config.extent_bytes
            if offset < 0 or size < 1 or offset + size > extent_bytes:
                raise protocol.ProtocolError(
                    f"offset {offset} + size {size} must address bytes inside "
                    f"one {extent_bytes}-byte extent (offset >= 0, size >= 1)"
                )
            req_id = self.sim.inject_request(
                kind=kind, extent=extent, offset=offset, size=size,
            )
        except KeyError as exc:
            self.ingest_errors += 1
            return protocol.error_response(f"missing key {exc}")
        except (protocol.ProtocolError, ValueError, TypeError) as exc:
            self.ingest_errors += 1
            return protocol.error_response(str(exc))
        except RuntimeError as exc:  # halted: shutdown already in progress
            self.ingest_errors += 1
            return protocol.error_response(str(exc))
        self.ingested += 1
        return protocol.ok_response({"req_id": req_id, "sim_time_s": self.sim.engine.now})

    # -- trace streaming -----------------------------------------------------

    def _stream_events(self) -> None:
        """Append newly emitted obs events to the JSONL writer.

        Called after every simulation slice, so at any instant the file
        on disk holds complete lines for everything already simulated —
        a crash loses at most the line being written.
        """
        if self._writer is None or self.sim.obs_log is None:
            return
        events = self.sim.obs_log.events
        while self._event_ptr < len(events):
            self._writer.write(events[self._event_ptr])
            self._event_ptr += 1


def _int_field(value: Any, name: str) -> int:
    """An ingest field that must be a JSON integer (not a bool or float),
    so ``3.7`` or ``true`` is rejected instead of truncated to an extent."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise protocol.ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def run_replay_quiet(
    sim: ArraySimulation,
    control_path: str | Path,
    *,
    trace_out: str | Path | None = None,
) -> SimulationResult:
    """Convenience: deterministic replay to completion, no waiting.

    Used by tests and scripting: equivalent to ``repro serve --replay
    ... --accel 0 --exit-on-drain`` with no control clients connected.
    """
    daemon = ServeDaemon(
        sim,
        control_path,
        accel=0.0,
        trace_out=trace_out,
        exit_on_drain=True,
        install_signal_handlers=False,
    )
    return daemon.serve()
