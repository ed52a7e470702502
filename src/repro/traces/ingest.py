"""Real trace ingestion: public block-trace formats -> validated Traces.

The paper's headline results are driven by real traces (Cello '99, an
OLTP disk trace); the repo's built-in generators only *approximate*
them. This module opens the door to the real thing: loaders for the
block-trace formats that public archives actually publish, each
producing a validated :class:`~repro.traces.model.Trace` plus a
:class:`TraceProvenance` record (source path, content hash, what was
dropped, what was rescaled), and TraceTracker-style *modernization*
transforms that re-scale a decade-old trace onto modern hardware — a
new time axis, a new address-space size, a new intensity — while
preserving the workload's hot/cold structure.

Supported formats (:data:`INGEST_FORMATS`):

* ``msr`` — MSR-Cambridge-style CSV:
  ``timestamp,hostname,disk,type,offset,size,response_time`` with the
  timestamp in Windows filetime ticks (100 ns units) and byte offsets.
* ``blkparse`` — ``blktrace``/``blkparse`` default text output; only
  queue (``Q``) records are ingested (one per logical request), sector
  offsets are converted at 512 bytes/sector.
* ``csv`` — any columnar text format, described declaratively by a
  :class:`FieldMap` (column names or indices, time/offset units, read
  tokens, delimiter).

Everything here is pure and deterministic: loaders read only the file,
transforms take explicit seeds, and the same (file content, options)
pair always produces the same trace — which is what lets
:class:`~repro.analysis.parallel.TraceSpec` cache imported runs by a
content hash of the source file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.traces.io import TraceFormatError, _open_text
from repro.traces.model import Trace
from repro.traces.transforms import remap_extents, sample_fraction

#: Bytes per sector for formats that address in sectors (blkparse).
SECTOR_BYTES = 512

#: Windows filetime tick length (100 ns) — MSR-Cambridge timestamps.
_FILETIME_TICK_S = 1e-7

#: Default logical extent size when folding byte offsets onto extents.
DEFAULT_EXTENT_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Options and provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMap:
    """Declarative column map for the generic ``csv`` loader.

    Columns are addressed by header name (``str``) or 0-based index
    (``int``). ``kind`` may be None (every request is a read) and
    ``size`` may be None (every request gets ``default_size_bytes``).

    Attributes:
        time: arrival-time column.
        kind: read/write column; values matching ``read_values``
            (case-insensitive) are reads, everything else is a write.
        offset: address column (unit set by ``offset_unit``).
        size: request-size column (unit set by ``offset_unit`` when
            ``sectors``, bytes otherwise).
        time_unit: ``s`` | ``ms`` | ``us`` | ``ns``.
        offset_unit: ``bytes`` | ``sectors`` | ``extents``.
        read_values: tokens (lowercased) that mark a read.
        delimiter: field separator.
        has_header: whether row 1 is a header (required for ``str``
            column references).
        default_size_bytes: size used when ``size`` is None.
    """

    time: int | str = "time"
    kind: int | str | None = "kind"
    offset: int | str = "offset"
    size: int | str | None = "size"
    time_unit: str = "s"
    offset_unit: str = "bytes"
    read_values: tuple[str, ...] = ("r", "read", "0", "true")
    delimiter: str = ","
    has_header: bool = True
    default_size_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.time_unit not in _TIME_SCALES:
            raise ValueError(
                f"time_unit must be one of {sorted(_TIME_SCALES)}, got {self.time_unit!r}"
            )
        if self.offset_unit not in ("bytes", "sectors", "extents"):
            raise ValueError(
                f"offset_unit must be bytes/sectors/extents, got {self.offset_unit!r}"
            )
        if self.default_size_bytes <= 0:
            raise ValueError("default_size_bytes must be positive")


_TIME_SCALES = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


@dataclass(frozen=True)
class IngestOptions:
    """Knobs shared by every loader, plus the modernization pipeline.

    The modernization fields apply TraceTracker-style rescaling *after*
    the raw load, in a fixed order (address space, then time axis, then
    intensity) so the same options always produce the same trace:

    * ``target_extents`` — re-map the address space onto this many
      extents, preserving the hot/cold popularity ranking
      (:func:`rescale_extents`);
    * ``target_duration_s`` / ``target_iops`` — linear time-axis rescale
      (:func:`rescale_time`; at most one may be set);
    * ``intensity`` — arrival thinning (< 1) or superposition (> 1)
      at a fixed time axis (:func:`scale_intensity`).
    """

    extent_bytes: int = DEFAULT_EXTENT_BYTES
    num_extents: int | None = None
    name: str | None = None
    field_map: FieldMap | None = None
    target_extents: int | None = None
    target_duration_s: float | None = None
    target_iops: float | None = None
    intensity: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.extent_bytes <= 0:
            raise ValueError(f"extent_bytes must be positive, got {self.extent_bytes!r}")
        if self.num_extents is not None and self.num_extents < 1:
            raise ValueError(f"num_extents must be >= 1, got {self.num_extents!r}")
        if self.target_extents is not None and self.target_extents < 1:
            raise ValueError(f"target_extents must be >= 1, got {self.target_extents!r}")
        if self.target_duration_s is not None and self.target_iops is not None:
            raise ValueError("set at most one of target_duration_s / target_iops")
        if self.intensity <= 0:
            raise ValueError(f"intensity must be positive, got {self.intensity!r}")


@dataclass(frozen=True)
class TraceProvenance:
    """Where an imported trace came from and what was done to it.

    ``sha256`` is the content hash of the *source file* — the same hash
    :class:`~repro.analysis.parallel.TraceSpec` folds into the result
    cache key, so a provenance record always identifies the exact bytes
    a cached result was derived from.
    """

    source: str
    format: str
    sha256: str
    num_requests: int
    skipped_lines: int
    duration_s: float
    read_fraction: float
    num_extents: int
    extent_bytes: int
    transforms: tuple[str, ...] = ()

    def rows(self) -> list[tuple[str, str]]:
        """(label, value) rows for the report formatter."""
        return [
            ("source", self.source),
            ("format", self.format),
            ("sha256", self.sha256[:16] + "..."),
            ("requests", str(self.num_requests)),
            ("skipped lines", str(self.skipped_lines)),
            ("duration", f"{self.duration_s:.1f} s"),
            ("reads", f"{100.0 * self.read_fraction:.1f} %"),
            ("extents", f"{self.num_extents} x {self.extent_bytes} B"),
            ("transforms", ", ".join(self.transforms) or "none"),
        ]

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "format": self.format,
            "sha256": self.sha256,
            "num_requests": self.num_requests,
            "skipped_lines": self.skipped_lines,
            "duration_s": self.duration_s,
            "read_fraction": self.read_fraction,
            "num_extents": self.num_extents,
            "extent_bytes": self.extent_bytes,
            "transforms": list(self.transforms),
        }


@dataclass(frozen=True)
class IngestResult:
    """A validated trace plus its provenance record."""

    trace: Trace
    provenance: TraceProvenance


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of the file's raw bytes (the compressed bytes for
    ``.gz`` sources — the key must change iff the file on disk does)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _float_field(value: str, path: Path, lineno: int, label: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: {label} is not a number: {value!r}"
        ) from None


def _int_field(value: str, path: Path, lineno: int, label: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: {label} is not an integer: {value!r}"
        ) from None


class _Columns:
    """Append-only raw request columns shared by every loader."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.reads: list[bool] = []
        self.offsets_bytes: list[int] = []
        self.sizes: list[int] = []
        self.skipped = 0

    def add(self, time_s: float, read: bool, offset_bytes: int, size_bytes: int) -> None:
        self.times.append(time_s)
        self.reads.append(read)
        self.offsets_bytes.append(offset_bytes)
        self.sizes.append(size_bytes)

    def __len__(self) -> int:
        return len(self.times)


def _finalize(
    columns: _Columns,
    path: Path,
    fmt: str,
    options: IngestOptions,
) -> IngestResult:
    """Validate, sort, fold onto extents and apply modernization."""
    name = options.name or path.name.removesuffix(".gz").rsplit(".", 1)[0]
    n = len(columns)
    if n == 0:
        trace = Trace(
            name=name,
            num_extents=options.num_extents or 1,
            times=np.empty(0, dtype=np.float64),
            kinds=np.empty(0, dtype=np.int8),
            extents=np.empty(0, dtype=np.int64),
            offsets=np.empty(0, dtype=np.int64),
            sizes=np.empty(0, dtype=np.int64),
        )
    else:
        times = np.asarray(columns.times, dtype=np.float64)
        reads = np.asarray(columns.reads, dtype=bool)
        offsets_bytes = np.asarray(columns.offsets_bytes, dtype=np.int64)
        sizes = np.asarray(columns.sizes, dtype=np.int64)
        if offsets_bytes.min() < 0:
            i = int(np.argmin(offsets_bytes))
            raise TraceFormatError(
                f"{path}: record {i} has a negative offset ({int(offsets_bytes[i])})"
            )
        if sizes.min() <= 0:
            i = int(np.argmin(sizes))
            raise TraceFormatError(
                f"{path}: record {i} has a non-positive size ({int(sizes[i])})"
            )
        # Rebase to t=0 and stable-sort: real captures interleave CPUs /
        # hosts, so arrival order in the file is not time order.
        order = np.argsort(times, kind="stable")
        times = times[order] - float(times[order[0]])
        extents = offsets_bytes // options.extent_bytes
        num_extents = options.num_extents
        if num_extents is None:
            num_extents = int(extents.max()) + 1
        elif extents.max() >= num_extents:
            raise TraceFormatError(
                f"{path}: offset {int(offsets_bytes[int(np.argmax(extents))])} maps to "
                f"extent {int(extents.max())}, outside the requested "
                f"{num_extents}-extent volume; raise num_extents or extent_bytes"
            )
        trace = Trace(
            name=name,
            num_extents=num_extents,
            times=times,
            kinds=np.where(reads[order], 0, 1).astype(np.int8),
            extents=extents[order],
            offsets=(offsets_bytes % options.extent_bytes)[order],
            sizes=sizes[order],
        )

    trace, applied = _modernize(trace, options)
    provenance = TraceProvenance(
        source=str(path),
        format=fmt,
        sha256=file_sha256(path),
        num_requests=len(trace),
        skipped_lines=columns.skipped,
        duration_s=trace.duration,
        read_fraction=trace.read_fraction,
        num_extents=trace.num_extents,
        extent_bytes=options.extent_bytes,
        transforms=applied,
    )
    return IngestResult(trace=trace, provenance=provenance)


def _modernize(trace: Trace, options: IngestOptions) -> tuple[Trace, tuple[str, ...]]:
    """Apply the options' modernization pipeline in its fixed order."""
    applied: list[str] = []
    name = trace.name
    if options.target_extents is not None and len(trace):
        trace = rescale_extents(trace, options.target_extents, seed=options.seed,
                                name=name)
        applied.append(f"extents->{options.target_extents}")
    if options.target_duration_s is not None and len(trace):
        trace = rescale_time(trace, duration_s=options.target_duration_s, name=name)
        applied.append(f"duration->{options.target_duration_s:g}s")
    elif options.target_iops is not None and len(trace):
        trace = rescale_time(trace, iops=options.target_iops, name=name)
        applied.append(f"iops->{options.target_iops:g}")
    if options.intensity != 1.0 and len(trace):
        trace = scale_intensity(trace, options.intensity, seed=options.seed, name=name)
        applied.append(f"intensity x{options.intensity:g}")
    return trace, tuple(applied)


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def load_msr(path: str | Path, options: IngestOptions | None = None) -> IngestResult:
    """MSR-Cambridge-style CSV.

    Row layout: ``timestamp,hostname,disk,type,offset,size,response``
    (exactly the first six fields are required; anything after the size
    is ignored). Timestamps are Windows filetime ticks (100 ns).
    """
    path = Path(path)
    options = options or IngestOptions()
    columns = _Columns()
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                columns.skipped += 1
                continue
            parts = line.split(",")
            if len(parts) < 6:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected >= 6 comma-separated fields, "
                    f"got {len(parts)}"
                )
            kind = parts[3].strip().lower()
            if kind not in ("read", "write", "r", "w"):
                raise TraceFormatError(
                    f"{path}:{lineno}: type must be Read or Write, got {parts[3]!r}"
                )
            ticks = _float_field(parts[0], path, lineno, "timestamp")
            offset = _int_field(parts[4], path, lineno, "offset")
            size = _int_field(parts[5], path, lineno, "size")
            columns.add(ticks * _FILETIME_TICK_S, kind.startswith("r"), offset, size)
    return _finalize(columns, path, "msr", options)


def load_blkparse(path: str | Path, options: IngestOptions | None = None) -> IngestResult:
    """``blkparse`` default text output.

    Record layout: ``maj,min cpu seq timestamp pid action rwbs sector +
    sectors [process]``. Only queue (``Q``) records whose RWBS token
    contains a read or write flag are ingested — one per logical
    request; completion/dispatch/merge records and the trailing summary
    section are skipped.
    """
    path = Path(path)
    options = options or IngestOptions()
    columns = _Columns()
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            # The summary block after the per-record section (and blank
            # lines) must not be parsed as records.
            if len(parts) < 10 or "," not in parts[0] or parts[8] != "+":
                columns.skipped += 1
                continue
            action, rwbs = parts[5], parts[6]
            if action != "Q":
                columns.skipped += 1
                continue
            rwbs_upper = rwbs.upper()
            read = "R" in rwbs_upper
            if not read and "W" not in rwbs_upper:
                columns.skipped += 1  # discard / barrier records
                continue
            time_s = _float_field(parts[3], path, lineno, "timestamp")
            sector = _int_field(parts[7], path, lineno, "sector")
            nsectors = _int_field(parts[9], path, lineno, "sector count")
            columns.add(time_s, read, sector * SECTOR_BYTES, nsectors * SECTOR_BYTES)
    return _finalize(columns, path, "blkparse", options)


def _resolve_column(
    ref: int | str, header: list[str] | None, path: Path
) -> int:
    if isinstance(ref, int):
        return ref
    if header is None:
        raise TraceFormatError(
            f"{path}: field map names column {ref!r} but has_header is False; "
            "use integer column indices"
        )
    try:
        return header.index(ref)
    except ValueError:
        raise TraceFormatError(
            f"{path}: column {ref!r} not in header {header!r}"
        ) from None


def load_generic_csv(
    path: str | Path, options: IngestOptions | None = None
) -> IngestResult:
    """Columnar text format described by ``options.field_map``."""
    path = Path(path)
    options = options or IngestOptions()
    fmap = options.field_map or FieldMap()
    time_scale = _TIME_SCALES[fmap.time_unit]
    columns = _Columns()
    with _open_text(path, "r") as fh:
        header: list[str] | None = None
        start = 1
        if fmap.has_header:
            first = fh.readline()
            if not first:
                raise TraceFormatError(f"{path}: empty file, expected a header row")
            header = [tok.strip() for tok in first.rstrip("\n").split(fmap.delimiter)]
            start = 2
        time_col = _resolve_column(fmap.time, header, path)
        kind_col = None if fmap.kind is None else _resolve_column(fmap.kind, header, path)
        offset_col = _resolve_column(fmap.offset, header, path)
        size_col = None if fmap.size is None else _resolve_column(fmap.size, header, path)
        read_tokens = tuple(v.lower() for v in fmap.read_values)
        for lineno, line in enumerate(fh, start=start):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                columns.skipped += 1
                continue
            parts = [tok.strip() for tok in line.split(fmap.delimiter)]
            needed = max(c for c in (time_col, kind_col, offset_col, size_col)
                         if c is not None)
            if len(parts) <= needed:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected >= {needed + 1} fields, got {len(parts)}"
                )
            time_s = _float_field(parts[time_col], path, lineno, "time") * time_scale
            read = True
            if kind_col is not None:
                read = parts[kind_col].lower() in read_tokens
            raw_offset = _int_field(parts[offset_col], path, lineno, "offset")
            if fmap.offset_unit == "sectors":
                offset = raw_offset * SECTOR_BYTES
            elif fmap.offset_unit == "extents":
                offset = raw_offset * options.extent_bytes
            else:
                offset = raw_offset
            if size_col is not None:
                size = _int_field(parts[size_col], path, lineno, "size")
                if fmap.offset_unit == "sectors":
                    size *= SECTOR_BYTES
            else:
                size = fmap.default_size_bytes
            columns.add(time_s, read, offset, size)
    return _finalize(columns, path, "csv", options)


#: Loader registry: format name -> loader callable.
INGEST_FORMATS: dict[str, Callable[..., IngestResult]] = {
    "msr": load_msr,
    "blkparse": load_blkparse,
    "csv": load_generic_csv,
}


def import_trace(
    path: str | Path,
    format: str,
    options: IngestOptions | None = None,
) -> IngestResult:
    """Load ``path`` with the named format loader and modernize it.

    Raises :class:`~repro.traces.io.TraceFormatError` (with file/line
    context) on malformed input and ``ValueError`` on an unknown format.
    """
    if format not in INGEST_FORMATS:
        raise ValueError(
            f"unknown ingest format {format!r}; known: {sorted(INGEST_FORMATS)}"
        )
    return INGEST_FORMATS[format](path, options)


# ---------------------------------------------------------------------------
# Modernization transforms (TraceTracker-style)
# ---------------------------------------------------------------------------


def rescale_time(
    trace: Trace,
    duration_s: float | None = None,
    iops: float | None = None,
    name: str | None = None,
) -> Trace:
    """Linear time-axis rescale to a target duration or mean IOPS.

    Inter-arrival structure (burst shape, idle valleys) is preserved —
    every arrival time is multiplied by one constant. Exactly one of
    ``duration_s`` / ``iops`` must be given; the trace must be non-empty
    with a positive span.
    """
    if (duration_s is None) == (iops is None):
        raise ValueError("set exactly one of duration_s / iops")
    if len(trace) == 0 or trace.duration <= 0.0:
        raise ValueError("cannot rescale an empty or zero-duration trace")
    if duration_s is not None:
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s!r}")
        factor = duration_s / trace.duration
    else:
        assert iops is not None
        if iops <= 0:
            raise ValueError(f"iops must be positive, got {iops!r}")
        factor = (len(trace) / trace.duration) / iops
    return Trace(
        name=name or f"{trace.name}@t{factor:g}",
        num_extents=trace.num_extents,
        times=trace.times * factor,
        kinds=trace.kinds.copy(),
        extents=trace.extents.copy(),
        offsets=trace.offsets.copy(),
        sizes=trace.sizes.copy(),
    )


def rescale_extents(
    trace: Trace,
    num_extents: int,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Re-map the address space onto ``num_extents`` extents, preserving
    the hot/cold popularity ranking.

    Source extents are ranked by access count (hottest first, ties
    broken by extent id so the mapping is deterministic); rank ``r`` of
    ``n`` source extents lands on target *rank* ``r * num_extents // n``,
    so shrinking folds comparable heat together and growing spreads the
    hot set out with cold extents left untouched. Target ranks are
    scattered across the new address space by a seeded permutation —
    real volumes do not store their hottest data contiguously, and a
    contiguous hot set would make Hibernator's migration look trivially
    cheap.
    """
    if num_extents < 1:
        raise ValueError(f"num_extents must be >= 1, got {num_extents!r}")
    n_src = trace.num_extents
    counts = np.bincount(trace.extents, minlength=n_src)
    # lexsort's last key is primary: sort by descending count, then by
    # extent id for a deterministic order among equals.
    hottest_first = np.lexsort((np.arange(n_src), -counts))
    rank_of_src = np.empty(n_src, dtype=np.int64)
    rank_of_src[hottest_first] = np.arange(n_src, dtype=np.int64)
    target_rank = rank_of_src * num_extents // n_src
    scatter = np.random.default_rng(seed).permutation(num_extents)
    mapping = scatter[target_rank]
    return remap_extents(trace, mapping, num_extents,
                         name=name or f"{trace.name}@e{num_extents}")


def scale_intensity(
    trace: Trace,
    factor: float,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Scale the arrival rate by ``factor`` at a fixed time axis.

    ``factor < 1`` thins arrivals (uniform random sampling — the
    standard de-intensification, same as
    :func:`~repro.traces.transforms.sample_fraction`); ``factor > 1``
    superposes jittered replicas of the trace on top of itself:
    ``floor(factor) - 1`` full replicas plus one thinned replica for the
    fractional part, each replica's arrivals jittered by up to one mean
    inter-arrival gap so superposed requests do not collide on identical
    timestamps. Request mix, sizes and the hot set are preserved.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor!r}")
    new_name = name or trace.name
    if factor == 1.0 or len(trace) == 0:
        return Trace(
            name=f"{new_name}i{factor:g}" if factor != 1.0 else new_name,
            num_extents=trace.num_extents,
            times=trace.times.copy(),
            kinds=trace.kinds.copy(),
            extents=trace.extents.copy(),
            offsets=trace.offsets.copy(),
            sizes=trace.sizes.copy(),
        )
    if factor < 1.0:
        thinned = sample_fraction(trace, factor, seed=seed)
        return Trace(
            name=f"{new_name}i{factor:g}",
            num_extents=trace.num_extents,
            times=thinned.times.copy(),
            kinds=thinned.kinds.copy(),
            extents=thinned.extents.copy(),
            offsets=thinned.offsets.copy(),
            sizes=thinned.sizes.copy(),
        )
    rng = np.random.default_rng(seed)
    whole = int(factor)
    fraction = factor - whole
    replicas: list[Trace] = [trace]
    for _ in range(whole - 1):
        replicas.append(trace)
    if fraction > 0.0:
        # Child seed drawn from the stream keeps one seed controlling
        # the whole superposition deterministically.
        replicas.append(sample_fraction(trace, fraction,
                                        seed=int(rng.integers(0, 2**31 - 1))))
    mean_gap = trace.duration / len(trace) if trace.duration > 0 else 0.0
    times_parts: list[np.ndarray] = []
    kinds_parts: list[np.ndarray] = []
    extents_parts: list[np.ndarray] = []
    offsets_parts: list[np.ndarray] = []
    sizes_parts: list[np.ndarray] = []
    for i, replica in enumerate(replicas):
        times = replica.times
        if i > 0 and len(replica):
            times = times + rng.uniform(0.0, mean_gap, size=len(replica))
        times_parts.append(times)
        kinds_parts.append(replica.kinds)
        extents_parts.append(replica.extents)
        offsets_parts.append(replica.offsets)
        sizes_parts.append(replica.sizes)
    all_times = np.concatenate(times_parts)
    order = np.argsort(all_times, kind="stable")
    return Trace(
        name=f"{new_name}i{factor:g}",
        num_extents=trace.num_extents,
        times=all_times[order],
        kinds=np.concatenate(kinds_parts)[order],
        extents=np.concatenate(extents_parts)[order],
        offsets=np.concatenate(offsets_parts)[order],
        sizes=np.concatenate(sizes_parts)[order],
    )


__all__ = [
    "DEFAULT_EXTENT_BYTES",
    "SECTOR_BYTES",
    "FieldMap",
    "IngestOptions",
    "IngestResult",
    "TraceProvenance",
    "INGEST_FORMATS",
    "file_sha256",
    "import_trace",
    "load_blkparse",
    "load_generic_csv",
    "load_msr",
    "rescale_extents",
    "rescale_time",
    "scale_intensity",
]
