"""Trace file I/O.

Traces are exchanged as CSV (optionally gzip-compressed when the path
ends in ``.gz``) with a one-line header::

    # repro-trace v1 name=<name> num_extents=<n>
    time,kind,extent,offset,size

Header values are percent-encoded (RFC 3986 style, no safe characters)
on write and decoded on read, because header tokens are split on
whitespace and ``=``: transform-produced names like ``"a b"`` (from
``concat(name="a b")``) or ``"oltp+5s"`` would otherwise be truncated
or corrupted on the way back in. Plain names (letters, digits, ``-``,
``_``, ``.``) are written verbatim, so files produced by older writers
load unchanged.

This keeps traces inspectable with standard tools while staying fast
enough for the trace sizes the experiments use.
"""

from __future__ import annotations

import csv
import gzip
import io
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterator
from urllib.parse import quote, unquote

import numpy as np

from repro.traces.model import Trace

_MAGIC = "# repro-trace v1"
#: One body row as the vectorized pass reads it. ``kind`` is two
#: characters wide so that numpy cannot truncate ``RR`` to ``R``.
_ROW = np.dtype([("time", "f8"), ("kind", "U2"), ("extent", "i8"), ("offset", "i8"),
                 ("size", "i8")])
#: ASCII characters that numpy reads differently from the row parser. No
#: valid row holds one. numpy's fixed-width strings drop trailing NULs, so
#: a kind ``R\0`` would read as ``R``, and numpy strips \x1c-\x1f around a
#: number as whitespace where int() and float() refuse them. The pass also
#: refuses any non-ASCII body: numpy's integer parser misreads some
#: non-ASCII characters as digits (U+0968, DEVANAGARI DIGIT TWO, as 2360),
#: where int() reads 2.
_DISPUTED_CHARS = ("\0", "\x1c", "\x1d", "\x1e", "\x1f")
_BATCH_LINES = 1024
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: times (float64), kinds (int8, R=0 W=1), extents, offsets, sizes (int64).
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class TraceFormatError(ValueError):
    """Raised when a trace file does not match the expected format."""


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def _encode_header_value(value: str) -> str:
    """Percent-encode a header value so it survives whitespace/``=``
    token splitting (``safe=""`` also encodes ``/`` and ``%``)."""
    return quote(value, safe="")


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` (gzip when the name ends in .gz)."""
    path = Path(path)
    name = _encode_header_value(trace.name)
    with _open_text(path, "w") as fh:
        fh.write(f"{_MAGIC} name={name} num_extents={trace.num_extents}\n")
        writer = csv.writer(fh)
        writer.writerow(["time", "kind", "extent", "offset", "size"])
        for times, kinds, extents, offsets, sizes in zip(
            trace.times, trace.kinds, trace.extents, trace.offsets, trace.sizes
        ):
            writer.writerow(
                [
                    f"{times:.9f}",
                    "R" if kinds == 0 else "W",
                    int(extents),
                    int(offsets),
                    int(sizes),
                ]
            )


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace` (gzip when the name ends
    in .gz).

    The two header lines are checked first. The body is then parsed in one
    vectorized :func:`numpy.loadtxt` pass over the open file. Any input
    that pass refuses (a malformed row, a kind other than ``R`` or ``W``,
    a non-ASCII character, a NUL or \\x1c-\\x1f, an empty body) is read
    again by the row parser, which defines the format and raises every
    :class:`TraceFormatError` about a row, with ``path:line`` context.
    Both give the same columns, byte for byte.
    """
    path = Path(path)
    with _open_text(path, "r") as fh:
        name, num_extents = _read_header(fh, path)
        columns = _parse_columns(fh)
    if columns is None:
        with _open_text(path, "r") as fh:
            _read_header(fh, path)
            columns = _parse_rows(fh, path)
    times, kinds, extents, offsets, sizes = columns
    return Trace(name=name, num_extents=num_extents, times=times, kinds=kinds,
                 extents=extents, offsets=offsets, sizes=sizes)


def _read_header(fh: IO[str], path: Path) -> tuple[str, int]:
    """The trace name and ``num_extents`` from the magic line, after which
    the fixed column line is consumed too."""
    header = fh.readline().rstrip("\n")
    if not header.startswith(_MAGIC):
        raise TraceFormatError(f"{path}: missing '{_MAGIC}' header")
    meta: dict[str, str] = {}
    for token in header[len(_MAGIC):].split():
        if "=" not in token:
            raise TraceFormatError(f"{path}: bad header token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = unquote(value)
    if "num_extents" not in meta:
        raise TraceFormatError(f"{path}: header lacks num_extents")
    try:
        num_extents = int(meta["num_extents"])
    except ValueError:
        raise TraceFormatError(
            f"{path}:1: num_extents is not an integer: {meta['num_extents']!r}"
        ) from None
    columns = next(csv.reader(fh), None)
    if columns != list(_ROW.names):
        raise TraceFormatError(f"{path}: unexpected column header {columns!r}")
    return meta.get("name", path.stem), num_extents


def _parse_columns(fh: IO[str]) -> _Columns | None:
    """The body's columns from one :func:`numpy.loadtxt` pass, or None
    where the pass refuses the input."""
    try:
        with warnings.catch_warnings():
            # numpy only warns about a header-only or blank-only body.
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(_checked_lines(fh), dtype=_ROW, delimiter=",", comments=None,
                              quotechar=None, ndmin=1)
    except (ValueError, UserWarning):
        # The row parser decides: it returns the same columns or raises
        # the format's own error.
        return None
    kinds = rows["kind"]
    writes = kinds == "W"
    if not (writes | (kinds == "R")).all():
        return None
    return (np.ascontiguousarray(rows["time"]), writes.astype(np.int8),
            np.ascontiguousarray(rows["extent"]), np.ascontiguousarray(rows["offset"]),
            np.ascontiguousarray(rows["size"]))


def _checked_lines(fh: IO[str]) -> Iterator[str]:
    """``fh``'s lines, read in batches of ``_BATCH_LINES``. A batch that is
    not ASCII or holds one of ``_DISPUTED_CHARS`` raises ValueError."""
    batches = iter(lambda: list(islice(fh, _BATCH_LINES)), [])
    return chain.from_iterable(map(_refuse_disputed, batches))


def _refuse_disputed(lines: list[str]) -> list[str]:
    text = "".join(lines)
    if not text.isascii() or any(char in text for char in _DISPUTED_CHARS):
        raise ValueError("trace body holds a character numpy reads differently")
    return lines


def _parse_rows(fh: IO[str], path: Path) -> _Columns:
    """The body's columns, parsed one csv row at a time: the definition
    of the format, and the source of every row's error."""
    times: list[float] = []
    kinds: list[int] = []
    extents: list[int] = []
    offsets: list[int] = []
    sizes: list[int] = []
    for lineno, row in enumerate(csv.reader(fh), start=3):
        if not row:
            continue
        if len(row) != 5:
            raise TraceFormatError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        time_s, kind, extent, offset, size = row
        if kind not in ("R", "W"):
            raise TraceFormatError(f"{path}:{lineno}: kind must be R or W, got {kind!r}")
        try:
            times.append(float(time_s))
        except ValueError:
            raise TraceFormatError(
                f"{path}:{lineno}: time is not a number: {time_s!r}"
            ) from None
        kinds.append(0 if kind == "R" else 1)
        for label, value, column in (
            ("extent", extent, extents),
            ("offset", offset, offsets),
            ("size", size, sizes),
        ):
            try:
                number = int(value)
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{lineno}: {label} is not an integer: {value!r}"
                ) from None
            if not _INT64_MIN <= number <= _INT64_MAX:
                raise TraceFormatError(
                    f"{path}:{lineno}: {label} does not fit in 64 bits: {value!r}"
                )
            column.append(number)
    return (
        np.asarray(times, dtype=np.float64),
        np.asarray(kinds, dtype=np.int8),
        np.asarray(extents, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
    )
