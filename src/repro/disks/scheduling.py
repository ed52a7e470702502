"""Per-disk queue scheduling disciplines.

The disk serves one op at a time; the discipline decides which queued op
goes next:

* :class:`FcfsQueue` — arrival order. What the paper (and the M/G/1
  prediction the CR optimizer uses) assumes.
* :class:`SstfQueue` — shortest seek time first: always the op nearest
  the head. Cuts seek time under load at the cost of potential
  starvation of far-away ops.
* :class:`ScanQueue` — the elevator: sweep the head in one direction
  serving everything on the way, reverse at the last request. Bounded
  unfairness, near-SSTF seek efficiency.

Disciplines only reorder *within a disk's queue*; they are orthogonal to
the array-level power policies, and the scheduler ablation benchmark
(A5) measures how much they shift the energy/latency picture.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.sim.request import DiskOp


def check_finite_fields(obj: Any, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a float.

    Refuses bools (JSON ``true`` is a Python int), strings, NaN and
    ±inf with a ValueError naming the field; integers are read as
    floats, and one too large for a float raises OverflowError. The
    check behind every number a fault plan carries.
    """
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(
                f"{type(obj).__name__}.{name} must be a finite number, got {value!r}")
        object.__setattr__(obj, name, float(value))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff budget for transiently failed disk ops.

    A disk op hit by an injected transient error is re-serviced after an
    exponential backoff until either an attempt succeeds or the budget
    runs out, at which point the op (and its parent request) fails.

    Attributes:
        max_attempts: total service attempts per op, including the
            first; ``1`` disables retries entirely.
        backoff_s: delay before the first retry, in seconds.
        backoff_multiplier: factor applied to the delay per further
            retry (``backoff_s * multiplier ** (attempt - 1)``).
    """

    max_attempts: int = 3
    backoff_s: float = 0.005
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if (not isinstance(self.max_attempts, int) or isinstance(self.max_attempts, bool)
                or self.max_attempts < 1):
            raise ValueError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}")
        check_finite_fields(self, "backoff_s", "backoff_multiplier")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_s * self.backoff_multiplier ** (attempt - 1)


class QueueDiscipline(abc.ABC):
    """Order ops waiting for one disk."""

    __slots__ = ()

    name = "discipline"

    @abc.abstractmethod
    def push(self, op: DiskOp) -> None:
        """Add an op to the queue."""

    @abc.abstractmethod
    def pop(self, head_block: int) -> DiskOp:
        """Remove and return the next op to serve given the head position.

        Raises IndexError when empty.
        """

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def __bool__(self) -> bool:
        # Subclasses override with a direct truth test on their storage;
        # this generic fallback costs a __len__ dispatch per emptiness
        # check, which the disk does twice per op.
        return len(self) > 0

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop all queued ops (used only by tests/teardown)."""


class FcfsQueue(QueueDiscipline):
    """First come, first served."""

    name = "fcfs"
    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: deque[DiskOp] = deque()

    def push(self, op: DiskOp) -> None:
        self._queue.append(op)

    def pop(self, head_block: int) -> DiskOp:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def clear(self) -> None:
        self._queue.clear()


class SstfQueue(QueueDiscipline):
    """Shortest seek time first: nearest block to the head wins.

    Ties break toward the earliest-queued op, keeping the schedule
    deterministic.
    """

    name = "sstf"
    __slots__ = ("_ops",)

    def __init__(self) -> None:
        self._ops: list[DiskOp] = []

    def push(self, op: DiskOp) -> None:
        self._ops.append(op)

    def pop(self, head_block: int) -> DiskOp:
        if not self._ops:
            raise IndexError("pop from empty queue")
        best_index = 0
        best_distance = abs(self._ops[0].block - head_block)
        for i, op in enumerate(self._ops[1:], start=1):
            distance = abs(op.block - head_block)
            if distance < best_distance:
                best_index, best_distance = i, distance
        return self._ops.pop(best_index)

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def clear(self) -> None:
        self._ops.clear()


class ScanQueue(QueueDiscipline):
    """Elevator (SCAN): serve in the sweep direction, reverse at the end."""

    name = "scan"
    __slots__ = ("_ops", "_direction")

    def __init__(self) -> None:
        self._ops: list[DiskOp] = []
        self._direction = 1  # +1 toward higher blocks

    def push(self, op: DiskOp) -> None:
        self._ops.append(op)

    def pop(self, head_block: int) -> DiskOp:
        if not self._ops:
            raise IndexError("pop from empty queue")
        chosen = self._nearest_in_direction(head_block, self._direction)
        if chosen is None:
            self._direction = -self._direction
            chosen = self._nearest_in_direction(head_block, self._direction)
        assert chosen is not None  # some op must lie on one side
        return self._ops.pop(chosen)

    def _nearest_in_direction(self, head_block: int, direction: int) -> int | None:
        best_index: int | None = None
        best_distance = None
        for i, op in enumerate(self._ops):
            delta = (op.block - head_block) * direction
            if delta < 0:
                continue
            if best_distance is None or delta < best_distance:
                best_index, best_distance = i, delta
        return best_index

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def clear(self) -> None:
        self._ops.clear()
        self._direction = 1


_DISCIPLINES = {
    "fcfs": FcfsQueue,
    "sstf": SstfQueue,
    "scan": ScanQueue,
}


def make_discipline(name: str) -> QueueDiscipline:
    """Instantiate a discipline by name ('fcfs', 'sstf', 'scan')."""
    try:
        return _DISCIPLINES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling discipline {name!r}; choose from {sorted(_DISCIPLINES)}"
        ) from None
