"""The serve control protocol: newline-delimited strict JSON.

One request per line, one response per line, over a local ``AF_UNIX``
stream socket. A request is an object with a ``cmd`` key and the fields
:data:`COMMANDS` lists for that command; anything else (a misspelled
``relativ``, a ``goal_ms``) is rejected, not ignored. docs/serve.md
describes each command and its reply.

Responses are ``{"ok": true, "data": {...}}`` or
``{"ok": false, "error": "..."}``. Every line is strict JSON — no
``NaN``/``Infinity`` literals, ever: :func:`encode_line` refuses a
non-finite float, :func:`ok_response` turns the ones in a reply into
null, and an incoming line that contains one is rejected.
"""

from __future__ import annotations

import json
import math
from typing import Any, NoReturn

#: Bumped when the message schema changes incompatibly; reported by
#: ``ping`` so clients can refuse to drive a daemon they don't speak.
PROTOCOL_VERSION = 1

#: The wire contract: every command the daemon understands, with the
#: request fields it takes beyond ``cmd``. The daemon dispatches each to
#: the ``ServeDaemon._cmd_*`` method named after it (``set-goal`` ->
#: ``_cmd_set_goal``), ``repro ctl`` offers exactly these names, and the
#: PROTO003 lint guard diffs this dict against the base ref and demands
#: a PROTOCOL_VERSION bump when it changes.
COMMANDS: dict[str, tuple[str, ...]] = {
    "ping": (),
    "status": (),
    "set-goal": ("goal_s",),
    "inject-fault": ("plan", "relative"),
    "force-boost": (),
    "shutdown": (),
}


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
    """One protocol message as a UTF-8 line (newline included).

    Raises ValueError on a NaN or infinite float instead of sending it:
    a request's NaN goal must not reach the daemon as null, which clears
    the goal. Replies built by :func:`ok_response` are already nulled.
    """
    return (json.dumps(message, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


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
    :data:`COMMANDS`, naming the ones it does take.
    """
    cmd = data.get("cmd")
    if not isinstance(cmd, str):
        raise ProtocolError("request has no 'cmd' string")
    if cmd not in COMMANDS:
        raise ProtocolError(f"unknown command {cmd!r}; known: {', '.join(COMMANDS)}")
    fields = COMMANDS[cmd]
    unknown = sorted(set(data) - {"cmd", *fields})
    if unknown:
        allowed = ", ".join(fields) or "none"
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
    """A success reply; non-finite floats in ``data`` become null."""
    return {"ok": True, "data": _strict(data or {})}


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}
