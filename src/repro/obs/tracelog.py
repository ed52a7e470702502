"""The event sink plus JSONL import/export.

A :class:`TraceLog` is a plain append-only list with an :meth:`emit`
bound method that components call through the narrow
``emit(event)`` hook threaded from :class:`~repro.sim.runner.ArraySimulation`.
When observability is disabled the hook is ``None`` and nothing here is
ever touched.

On disk a trace is JSON Lines: one event dict per line (see
:func:`repro.obs.events.event_to_dict`). A file may hold several runs
back to back (``repro compare --trace-out`` writes one per scheme); each
run opens with a ``run_start`` line, which is what :func:`split_runs`
keys on.

Every line is **strict JSON**: non-finite floats (the deliberate
``WindowAverage`` empty-window NaN, say) are normalized to ``null`` on
the way out — Python's default ``json.dumps`` would emit a bare ``NaN``
literal that ``jq`` and every strict parser reject — and ``null`` is
restored to NaN on the way back in for float-typed event fields (see
:func:`repro.obs.events.event_from_dict`).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

from repro.obs.events import TraceEvent, event_from_dict, event_to_dict


class TraceLog:
    """Append-only, in-order record of one run's events."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        """Record one event (the hook handed to instrumented components)."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str | type[TraceEvent]) -> list[TraceEvent]:
        """Events of one kind, by tag string or event class."""
        tag = kind if isinstance(kind, str) else kind.kind
        return [e for e in self.events if e.kind == tag]


def _strict_safe(value: Any) -> Any:
    """Replace non-finite floats with None, recursively through lists.

    The same convention as :func:`repro.analysis.export._json_safe`:
    NaN/Infinity have no strict-JSON representation, and ``null`` is the
    honest rendering of "no value" (empty-window averages, unavailable
    percentiles).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_strict_safe(v) for v in value]
    return value


def event_line(event: TraceEvent) -> str:
    """One event as a strict-JSON line (no trailing newline).

    ``allow_nan=False`` is a belt-and-braces assertion: after
    :func:`_strict_safe` no non-finite value can remain, so a ValueError
    here means a new event type smuggled one in through a container the
    sanitizer does not know.
    """
    record = {k: _strict_safe(v) for k, v in event_to_dict(event).items()}
    return json.dumps(record, sort_keys=True, allow_nan=False)


def write_jsonl(events: Iterable[TraceEvent], path: str | Path | IO[str]) -> int:
    """Write events as JSON Lines; returns the number of lines written."""
    def _write(fh: IO[str]) -> int:
        n = 0
        for event in events:
            fh.write(event_line(event))
            fh.write("\n")
            n += 1
        return n

    if hasattr(path, "write"):
        return _write(path)  # type: ignore[arg-type]
    with open(path, "w", encoding="utf-8") as fh:
        return _write(fh)


class JsonlWriter:
    """Incremental JSONL event sink for long-lived runs (``repro serve``).

    :func:`write_jsonl` needs the full event list up front; a daemon has
    events trickling in over hours. This writer appends one complete
    line per event and exposes :meth:`flush` (line buffer + fsync) so a
    signal handler can make everything written so far durable before
    exiting — the only torn line a crash can leave is the one being
    written at that instant, which :func:`read_jsonl` skips with a
    warning. :meth:`close` is idempotent.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = open(self.path, "w", encoding="utf-8")
        self.lines = 0

    def write(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError("writer is closed")
        self._fh.write(event_line(event))
        self._fh.write("\n")
        self.lines += 1

    def flush(self) -> None:
        """Push buffered lines to the OS and the OS to the platter."""
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is None:
            return
        self.flush()
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str | Path | IO[str]) -> list[TraceEvent]:
    """Read a JSONL trace file back into event objects.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    the 1-based line number — except a final line that starts a JSON
    object (``{``, as every line the writer emits does) but does not
    parse, which is the signature of a write torn mid-line (daemon
    killed, disk full) and is skipped with a warning so a trace cut off
    by a crash stays readable. A final line that is no JSON object at
    all (a CSV header, say) still raises, and so does a *semantically*
    bad one (valid JSON, unknown event kind): that is schema drift, not
    a torn write.
    """
    def _read(fh: IO[str]) -> list[TraceEvent]:
        lines = fh.read().split("\n")
        last_payload = -1
        for i, line in enumerate(lines):
            if line.strip():
                last_payload = i
        out: list[TraceEvent] = []
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == last_payload and line.startswith("{"):
                    warnings.warn(
                        f"skipping torn final trace line {index + 1} "
                        f"(interrupted write?): {exc}",
                        stacklevel=3,
                    )
                    continue
                raise ValueError(f"bad trace line {index + 1}: {exc}") from exc
            try:
                out.append(event_from_dict(record))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"bad trace line {index + 1}: {exc}") from exc
        return out

    if hasattr(path, "read"):
        return _read(path)  # type: ignore[arg-type]
    with open(path, "r", encoding="utf-8") as fh:
        return _read(fh)


def split_runs(events: Sequence[TraceEvent]) -> list[list[TraceEvent]]:
    """Partition a multi-run event stream on ``run_start`` boundaries.

    Events before the first ``run_start`` (if any) form their own leading
    group so nothing is silently dropped.
    """
    runs: list[list[TraceEvent]] = []
    current: list[TraceEvent] = []
    for event in events:
        if event.kind == "run_start" and current:
            runs.append(current)
            current = []
        current.append(event)
    if current:
        runs.append(current)
    return runs
