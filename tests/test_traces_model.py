"""Unit tests for trace containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.request import IoKind
from repro.traces.model import Trace, TraceBuilder, trace_from_columns
from tests.conftest import make_trace


def test_builder_roundtrip():
    b = TraceBuilder("t", num_extents=10)
    b.add(0.0, IoKind.READ, 3, 0, 4096)
    b.add(1.5, IoKind.WRITE, 7, 512, 8192)
    trace = b.build()
    assert len(trace) == 2
    first, second = trace[0], trace[1]
    assert first.kind is IoKind.READ and first.extent == 3
    assert second.kind is IoKind.WRITE and second.size == 8192
    assert trace.duration == 1.5


def test_builder_rejects_out_of_order():
    b = TraceBuilder("t", num_extents=10)
    b.add(2.0, IoKind.READ, 0, 0, 4096)
    with pytest.raises(ValueError):
        b.add(1.0, IoKind.READ, 0, 0, 4096)


def test_trace_rejects_unsorted_times():
    with pytest.raises(ValueError):
        trace_from_columns(
            "t", 10,
            times=np.array([2.0, 1.0]),
            read_mask=np.array([True, True]),
            extents=np.array([0, 1]),
            sizes=np.array([4096, 4096]),
        )


def test_trace_unsorted_error_names_offending_index():
    """Regression: a bad trace used to surface mid-replay as a deep
    `SimulationError: cannot schedule event ... before now`; validation
    happens at construction and names the first offending index."""
    with pytest.raises(ValueError, match=r"times\[2\]=1 after times\[1\]=3"):
        trace_from_columns(
            "t", 10,
            times=np.array([0.0, 3.0, 1.0, 4.0]),
            read_mask=np.array([True] * 4),
            extents=np.array([0, 1, 2, 3]),
            sizes=np.array([4096] * 4),
        )


def test_trace_rejects_negative_times():
    """Negative arrivals would otherwise blow up inside Engine.schedule
    (events cannot be scheduled before t=0)."""
    with pytest.raises(ValueError, match=r"non-negative.*times\[0\]=-2"):
        trace_from_columns(
            "t", 10,
            times=np.array([-2.0, 1.0]),
            read_mask=np.array([True, True]),
            extents=np.array([0, 1]),
            sizes=np.array([4096, 4096]),
        )


def test_trace_rejects_extent_out_of_range():
    with pytest.raises(ValueError):
        trace_from_columns(
            "t", 4,
            times=np.array([1.0]),
            read_mask=np.array([True]),
            extents=np.array([4]),
            sizes=np.array([4096]),
        )


def test_trace_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Trace(
            "t", 4,
            times=np.array([1.0, 2.0]),
            kinds=np.array([0], dtype=np.int8),
            extents=np.array([0, 1]),
            offsets=np.array([0, 0]),
            sizes=np.array([4096, 4096]),
        )


def test_read_fraction():
    trace = make_trace([0.0, 1.0, 2.0, 3.0],
                       kinds=[IoKind.READ, IoKind.READ, IoKind.READ, IoKind.WRITE])
    assert trace.read_fraction == pytest.approx(0.75)


def test_empty_trace():
    trace = TraceBuilder("empty", 10).build()
    assert len(trace) == 0
    assert trace.duration == 0.0
    assert trace.read_fraction == 0.0
    assert list(trace) == []


def test_iteration_matches_indexing():
    trace = make_trace([0.0, 0.5, 1.0], extents=[1, 2, 3])
    items = list(trace)
    assert [r.extent for r in items] == [1, 2, 3]
    assert items[1] == trace[1]


def test_slice_time_half_open():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], extents=[0, 1, 2, 3])
    sliced = trace.slice_time(1.0, 3.0)
    assert [r.extent for r in sliced] == [1, 2]
    assert [r.time for r in sliced] == [1.0, 2.0]  # times preserved


def test_scaled_rate_compresses_times():
    trace = make_trace([0.0, 2.0, 4.0])
    fast = trace.scaled_rate(2.0)
    assert list(fast.times) == [0.0, 1.0, 2.0]
    assert len(fast) == len(trace)


def test_scaled_rate_validates():
    with pytest.raises(ValueError):
        make_trace([0.0]).scaled_rate(0.0)


def test_columns_are_immutable():
    trace = make_trace([0.0, 1.0])
    with pytest.raises(ValueError):
        trace.times[0] = 5.0


@pytest.mark.parametrize("column,values,message", [
    # NaN replayed as one request with no energy and no end time.
    ("times", [0.0, float("nan")], r"times must be finite: times\[1\]=nan"),
    # An infinite arrival kept Hibernator's epoch timer re-arming forever.
    ("times", [0.0, float("inf")], r"times must be finite: times\[1\]=inf"),
    ("times", [float("-inf"), 0.0], r"times must be finite: times\[0\]=-inf"),
    ("offsets", [0, -5], r"offsets must be non-negative: offsets\[1\]=-5"),
    ("sizes", [4096, 0], r"sizes must be at least 1: sizes\[1\]=0"),
    # A negative size died mid-replay in the disk model's transfer time.
    ("sizes", [-5, 4096], r"sizes must be at least 1: sizes\[0\]=-5"),
], ids=["nan-time", "inf-time", "minus-inf-time", "negative-offset", "zero-size",
        "negative-size"])
def test_trace_rejects_values_that_cannot_replay(column, values, message):
    columns = dict(
        times=np.array([0.0, 1.0]),
        kinds=np.zeros(2, dtype=np.int8),
        extents=np.array([0, 1]),
        offsets=np.array([0, 512]),
        sizes=np.array([4096, 4096]),
    )
    columns[column] = np.array(values)
    with pytest.raises(ValueError, match=message):
        Trace("t", 4, **columns)
