"""Trace containers.

A :class:`Trace` is an immutable, time-ordered sequence of logical I/O
requests stored column-wise in numpy arrays (traces run to millions of
requests; per-request Python objects would dominate memory). Iteration
yields lightweight :class:`TraceRequest` views for the replayer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.sim.request import IoKind

_KIND_READ = 0
_KIND_WRITE = 1


@dataclass(frozen=True)
class TraceRequest:
    """One logical request in a trace."""

    time: float
    kind: IoKind
    extent: int
    offset: int
    size: int


class Trace:
    """Immutable column-wise trace.

    Attributes:
        name: workload label used in reports.
        num_extents: size of the logical address space the trace targets.
        times / kinds / extents / offsets / sizes: parallel numpy arrays.
    """

    def __init__(
        self,
        name: str,
        num_extents: int,
        times: np.ndarray,
        kinds: np.ndarray,
        extents: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        n = len(times)
        for label, arr in (
            ("kinds", kinds),
            ("extents", extents),
            ("offsets", offsets),
            ("sizes", sizes),
        ):
            if len(arr) != n:
                raise ValueError(f"column {label} has {len(arr)} rows, expected {n}")
        # Validate every column here, with the offending index, instead of
        # letting a bad trace surface mid-replay as a cryptic
        # SimulationError from Engine.schedule, a transfer-size error from
        # the disk model, or a replay that never ends.
        if n:
            finite = np.isfinite(times)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValueError(f"trace times must be finite: times[{i}]={float(times[i]):g}")
            backwards = np.diff(times) < 0
            if backwards.any():
                i = int(np.argmax(backwards)) + 1
                raise ValueError(
                    f"trace times must be non-decreasing: times[{i}]="
                    f"{float(times[i]):g} after times[{i - 1}]={float(times[i - 1]):g}"
                )
            if float(times[0]) < 0.0:
                i = int(np.argmin(times))
                raise ValueError(
                    f"trace times must be non-negative: times[{i}]={float(times[i]):g}"
                )
            if offsets.min() < 0:
                i = int(np.argmax(offsets < 0))
                raise ValueError(
                    f"trace offsets must be non-negative: offsets[{i}]={int(offsets[i])}"
                )
            if sizes.min() < 1:
                i = int(np.argmax(sizes < 1))
                raise ValueError(f"trace sizes must be at least 1: sizes[{i}]={int(sizes[i])}")
        if n and (extents.min() < 0 or extents.max() >= num_extents):
            raise ValueError("trace addresses an extent outside the volume")
        self.name = name
        self.num_extents = num_extents
        self.times = np.asarray(times, dtype=np.float64)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.extents = np.asarray(extents, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        for arr in (self.times, self.kinds, self.extents, self.offsets, self.sizes):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[TraceRequest]:
        for i in range(len(self.times)):
            yield self[i]

    def __getitem__(self, i: int) -> TraceRequest:
        return TraceRequest(
            time=float(self.times[i]),
            kind=IoKind.READ if self.kinds[i] == _KIND_READ else IoKind.WRITE,
            extent=int(self.extents[i]),
            offset=int(self.offsets[i]),
            size=int(self.sizes[i]),
        )

    @property
    def duration(self) -> float:
        """Time of the last request (0.0 for an empty trace)."""
        if len(self.times) == 0:
            return 0.0
        return float(self.times[-1])

    @property
    def read_fraction(self) -> float:
        if len(self.kinds) == 0:
            return 0.0
        return float(np.mean(self.kinds == _KIND_READ))

    def slice_time(self, start: float, end: float) -> "Trace":
        """Requests with ``start <= time < end`` (times are preserved)."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return Trace(
            name=f"{self.name}[{start:g},{end:g})",
            num_extents=self.num_extents,
            times=self.times[lo:hi].copy(),
            kinds=self.kinds[lo:hi].copy(),
            extents=self.extents[lo:hi].copy(),
            offsets=self.offsets[lo:hi].copy(),
            sizes=self.sizes[lo:hi].copy(),
        )

    def scaled_rate(self, factor: float) -> "Trace":
        """Copy with inter-arrival times divided by ``factor`` (factor > 1
        intensifies the workload)."""
        if factor <= 0:
            raise ValueError(f"rate factor must be positive, got {factor!r}")
        return Trace(
            name=f"{self.name}x{factor:g}",
            num_extents=self.num_extents,
            times=self.times / factor,
            kinds=self.kinds.copy(),
            extents=self.extents.copy(),
            offsets=self.offsets.copy(),
            sizes=self.sizes.copy(),
        )


class TraceBuilder:
    """Append-only builder that freezes into a :class:`Trace`."""

    def __init__(self, name: str, num_extents: int) -> None:
        self.name = name
        self.num_extents = num_extents
        self._times: list[float] = []
        self._kinds: list[int] = []
        self._extents: list[int] = []
        self._offsets: list[int] = []
        self._sizes: list[int] = []

    def add(self, time: float, kind: IoKind, extent: int, offset: int, size: int) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"out-of-order request: {time} after {self._times[-1]}"
            )
        self._times.append(time)
        self._kinds.append(_KIND_READ if kind is IoKind.READ else _KIND_WRITE)
        self._extents.append(extent)
        self._offsets.append(offset)
        self._sizes.append(size)

    def __len__(self) -> int:
        return len(self._times)

    def build(self) -> Trace:
        return Trace(
            name=self.name,
            num_extents=self.num_extents,
            times=np.asarray(self._times, dtype=np.float64),
            kinds=np.asarray(self._kinds, dtype=np.int8),
            extents=np.asarray(self._extents, dtype=np.int64),
            offsets=np.asarray(self._offsets, dtype=np.int64),
            sizes=np.asarray(self._sizes, dtype=np.int64),
        )


def trace_from_columns(
    name: str,
    num_extents: int,
    times: np.ndarray,
    read_mask: np.ndarray,
    extents: np.ndarray,
    sizes: np.ndarray,
    offsets: np.ndarray | None = None,
) -> Trace:
    """Assemble a trace from generator output columns.

    ``read_mask`` is boolean (True = read); offsets default to zero.
    """
    kinds = np.where(read_mask, _KIND_READ, _KIND_WRITE).astype(np.int8)
    if offsets is None:
        offsets = np.zeros(len(times), dtype=np.int64)
    return Trace(
        name=name,
        num_extents=num_extents,
        times=times,
        kinds=kinds,
        extents=extents,
        offsets=offsets,
        sizes=sizes,
    )
