"""Blocking client for the serve control protocol.

Small on purpose: connect to the daemon's AF_UNIX socket, send one JSON
line per command, read one JSON line back. ``repro ctl`` and the test
suite both drive the daemon through this class, so the protocol has
exactly one client-side implementation to keep honest.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any

from repro.serve import protocol


class ServeClient:
    """One connection to a running serve daemon."""

    def __init__(self, control_path: str | Path, timeout_s: float = 10.0) -> None:
        self.control_path = Path(control_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(str(self.control_path))
        self._buffer = b""

    @classmethod
    def connect(
        cls, control_path: str | Path, *, retry_for_s: float = 5.0,
        timeout_s: float = 10.0,
    ) -> "ServeClient":
        """Connect, retrying while the daemon is still binding its socket."""
        deadline = time.monotonic() + retry_for_s
        while True:
            try:
                return cls(control_path, timeout_s=timeout_s)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one raw protocol message; returns the raw response.

        Raises ValueError, sending nothing, when ``message`` holds a NaN
        or infinite float (:func:`~repro.serve.protocol.encode_line`).
        """
        self._sock.sendall(protocol.encode_line(message))
        return protocol.decode_line(self._read_line())

    def command(self, cmd: str, **params: Any) -> dict[str, Any]:
        """Issue a command (a :data:`~repro.serve.protocol.COMMANDS` name
        with its fields as keywords); returns the response ``data``.

        Raises :class:`~repro.serve.protocol.ProtocolError` when the
        daemon answers ``ok: false``.
        """
        response = self.request({"cmd": cmd, **params})
        if not response.get("ok"):
            raise protocol.ProtocolError(
                str(response.get("error", "daemon refused the command"))
            )
        data = response.get("data")
        return data if isinstance(data, dict) else {}

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection mid-response")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
