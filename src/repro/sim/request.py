"""I/O request model shared by traces, the disk array and policies.

A :class:`Request` is a *logical* array-level operation (read or write of
``size`` bytes starting at byte ``offset`` inside logical extent
``extent``). The array layer fans a logical request out into one or more
*physical* disk operations (:class:`DiskOp`); the request completes when
its last physical operation completes.

Requests carry their own latency bookkeeping so statistics never need a
side table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable


class IoKind(enum.Enum):
    """Operation direction of a request."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RequestClass(enum.Enum):
    """Why a request exists; migration traffic is accounted separately."""

    FOREGROUND = "foreground"
    MIGRATION = "migration"


@dataclass(slots=True)
class Request:
    """A logical array-level I/O request.

    Attributes:
        req_id: unique id within a simulation run.
        arrival: simulated arrival time (seconds).
        kind: read or write.
        extent: logical extent index addressed.
        offset: byte offset within the extent.
        size: transfer size in bytes.
        klass: foreground (trace) or migration (background) traffic.
        completion: set when the last physical op finishes; None while
            in flight.
        ops_outstanding: physical ops still in flight for this request.
        on_complete: callback the array fires with the request when it
            completes (set by :meth:`repro.disks.array.DiskArray.submit`).
    """

    req_id: int
    arrival: float
    kind: IoKind
    extent: int
    offset: int
    size: int
    klass: RequestClass = RequestClass.FOREGROUND
    completion: float | None = None
    ops_outstanding: int = 0
    #: True when the request could not be served (e.g. data lost to a
    #: double failure); failed requests complete immediately and are
    #: excluded from latency statistics.
    failed: bool = False
    on_complete: Callable[[Request], None] | None = field(default=None, repr=False, compare=False)

    @property
    def latency(self) -> float:
        """Response time in seconds; raises if the request is in flight."""
        if self.completion is None:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.completion - self.arrival

    @property
    def is_read(self) -> bool:
        return self.kind is IoKind.READ

    @property
    def is_migration(self) -> bool:
        return self.klass is RequestClass.MIGRATION


@dataclass(slots=True)
class DiskOp:
    """A physical operation queued at one disk on behalf of a request.

    Attributes:
        request: the logical parent request (None for synthetic ops such
            as parity scrubs injected by tests).
        kind: physical direction; may differ from the parent (RAID-5
            read-modify-write issues reads for a logical write).
        disk_index: target disk within the array.
        block: physical block index on the disk, used for seek-distance
            modelling.
        size: transfer size in bytes.
        enqueued: time the op joined the disk queue.
        started: time service began (None while queued).
        finished: time service completed (None while queued/in service).
    """

    request: Request | None
    kind: IoKind
    disk_index: int
    block: int
    size: int
    enqueued: float = 0.0
    started: float | None = None
    finished: float | None = None
    on_complete: object = field(default=None, repr=False)
    #: Transient-error attempts already consumed by this op. Incremented
    #: by the disk when an injected fault forces a retry.
    attempts: int = 0
    #: True when the op gave up: its retry budget is exhausted or its
    #: disk failed while the op waited to be retried. A failed op still
    #: delivers ``on_complete`` exactly once so callers can unwind.
    failed: bool = False

    @property
    def queue_delay(self) -> float:
        if self.started is None:
            raise ValueError("op has not started service")
        return self.started - self.enqueued

    @property
    def service_time(self) -> float:
        if self.started is None or self.finished is None:
            raise ValueError("op has not finished service")
        return self.finished - self.started
