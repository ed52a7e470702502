"""The serve control protocol: newline-delimited strict JSON.

One request per line, one response per line, over a local
``AF_UNIX`` stream socket. Requests are objects with a ``cmd`` key:

``{"cmd": "ping"}``
    Liveness probe; answers ``{"pong": true, "version": ...}``.
``{"cmd": "status"}``
    Snapshot of the run: simulated time, progress counters, the current
    speed assignment and the full metrics registry
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`).
``{"cmd": "set-goal", "goal_s": 0.25}``
    Change (or, with ``"goal_s": null``, clear) the response-time goal;
    takes effect immediately in the deficit accounting and at the next
    epoch boundary in the optimizer.
``{"cmd": "inject-fault", "plan": {...}, "relative": true}``
    Install a :mod:`repro.faults` plan mid-run. ``plan`` uses the exact
    ``--faults`` JSON schema (docs/faults.md); with ``relative`` (a JSON
    bool, default true) fault times are offsets from the current
    simulated time.
``{"cmd": "force-boost"}``
    Enter the full-speed boost by operator fiat; answers whether the
    policy actually entered (False: no boost machinery / already
    boosted).
``{"cmd": "shutdown"}``
    Graceful stop: no new requests are admitted, in-flight ones drain,
    the JSONL trace is flushed, ``run_end`` is emitted, the daemon
    exits.

A request may carry only ``cmd`` and the fields
:data:`MESSAGE_FIELDS` lists for its command; anything else (a
misspelled ``relativ``, a ``goal_ms``) is rejected, not ignored.

Responses are ``{"ok": true, "data": {...}}`` or
``{"ok": false, "error": "..."}``. Every line is strict JSON — no
``NaN``/``Infinity`` literals, ever: outgoing non-finite floats become
null, and an incoming line that contains one is rejected.
"""

from __future__ import annotations

import json
import math
from typing import Any, NoReturn

#: Bumped when the message schema changes incompatibly; reported by
#: ``ping`` so clients can refuse to drive a daemon they don't speak.
PROTOCOL_VERSION = 1

#: Commands the daemon understands (the dispatch table is keyed on this).
COMMANDS = ("ping", "status", "set-goal", "inject-fault", "force-boost", "shutdown")

#: Request fields each command carries beyond ``cmd``. This is the wire
#: contract in registry form: the PROTO003 lint guard diffs it (and
#: COMMANDS) against the PR base and demands a PROTOCOL_VERSION bump
#: when either changes, so clients can refuse daemons they don't speak.
MESSAGE_FIELDS: dict[str, tuple[str, ...]] = {
    "ping": (),
    "status": (),
    "set-goal": ("goal_s",),
    "inject-fault": ("plan", "relative"),
    "force-boost": (),
    "shutdown": (),
}

if set(MESSAGE_FIELDS) != set(COMMANDS):  # pragma: no cover - import-time invariant
    raise AssertionError("MESSAGE_FIELDS and COMMANDS list different commands")


class ProtocolError(ValueError):
    """A message violated the protocol (bad JSON, missing cmd, ...)."""


def _strict(value: Any) -> Any:
    """Recursively replace non-finite floats with None (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def encode_line(message: dict[str, Any]) -> bytes:
    """One protocol message as a UTF-8 line (newline included)."""
    return (json.dumps(_strict(message), sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _reject_constant(name: str) -> NoReturn:
    raise ProtocolError(f"{name} is not strict JSON")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; raises :class:`ProtocolError` on junk,
    including the ``NaN``/``Infinity``/``-Infinity`` literals that
    Python's ``json`` accepts but strict JSON does not."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        data = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"protocol message must be an object, got {type(data).__name__}")
    return data


def request_command(data: dict[str, Any]) -> str:
    """Extract and validate the ``cmd`` of a request.

    Also rejects fields the command does not declare in
    :data:`MESSAGE_FIELDS`, naming the ones it does take.
    """
    cmd = data.get("cmd")
    if not isinstance(cmd, str):
        raise ProtocolError("request has no 'cmd' string")
    if cmd not in COMMANDS:
        raise ProtocolError(f"unknown command {cmd!r}; known: {', '.join(COMMANDS)}")
    unknown = sorted(set(data) - {"cmd", *MESSAGE_FIELDS[cmd]})
    if unknown:
        allowed = ", ".join(MESSAGE_FIELDS[cmd]) or "none"
        raise ProtocolError(
            f"{cmd} does not take {', '.join(map(repr, unknown))}; allowed fields: {allowed}"
        )
    return cmd


def finite_goal(value: Any, name: str) -> float:
    """A response-time goal as a float: a finite number > 0, not a bool.

    The one check behind ``set-goal``'s ``goal_s`` and both ``--goal-ms``
    flags. JSON ``true`` is a Python int and ``1e400`` parses to ``inf``;
    neither (nor NaN, nor a goal <= 0) is a goal the deficit accounting
    can work against. Raises :class:`ProtocolError` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number, got {value!r}")
    goal = float(value)
    if not math.isfinite(goal) or goal <= 0.0:
        raise ProtocolError(f"{name} must be a finite number > 0, got {value!r}")
    return goal


def ok_response(data: dict[str, Any] | None = None) -> dict[str, Any]:
    return {"ok": True, "data": data or {}}


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}
