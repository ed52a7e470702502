"""Unit tests for trace file I/O."""

from __future__ import annotations

import gzip
from unittest import mock

import numpy as np
import pytest

import repro.traces.io as trace_io
from repro.traces.io import TraceFormatError, load_trace, save_trace
from repro.traces.synthetic import SyntheticConfig, generate_synthetic


@pytest.fixture
def trace():
    return generate_synthetic(SyntheticConfig(duration=5.0, rate=40.0,
                                              num_extents=32, seed=8))


def test_roundtrip(tmp_path, trace):
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.num_extents == trace.num_extents
    assert np.allclose(loaded.times, trace.times)
    assert np.array_equal(loaded.kinds, trace.kinds)
    assert np.array_equal(loaded.extents, trace.extents)
    assert np.array_equal(loaded.sizes, trace.sizes)


def test_gzip_roundtrip(tmp_path, trace):
    path = tmp_path / "trace.csv.gz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    # File must actually be gzip.
    with open(path, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,kind,extent,offset,size\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_bad_kind_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        "0.5,Q,1,0,4096\n"
    )
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        "0.5,R,1\n"
    )
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_missing_num_extents_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# repro-trace v1 name=x\ntime,kind,extent,offset,size\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_unexpected_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# repro-trace v1 name=x num_extents=4\na,b\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_empty_trace_roundtrip(tmp_path):
    from repro.traces.model import TraceBuilder

    path = tmp_path / "empty.csv"
    save_trace(TraceBuilder("empty", 8).build(), path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.num_extents == 8


# -- header escaping (names with whitespace / '=' / '%') ---------------------


@pytest.mark.parametrize("name", [
    "a b",                 # space: was truncated at the first token split
    "x=y",                 # '=': was split as a key=value header token
    "oltp+2.5s",           # shift_time's f"{name}+{offset:g}s" product
    "a b=c 100%",          # both, plus a literal % (escaping metachar)
    "trace\tname",         # tab is whitespace too
    "ünïcode",             # non-ASCII survives the UTF-8 + quote round-trip
])
def test_adversarial_name_roundtrip(tmp_path, name):
    from repro.traces.transforms import concat
    from tests.conftest import make_trace

    trace = concat([make_trace([0.0, 1.0], num_extents=8)], name=name)
    path = tmp_path / "named.csv"
    save_trace(trace, path)
    assert load_trace(path).name == name


def test_transform_produced_names_roundtrip(tmp_path):
    """The exact transform outputs from the bug report survive a save/load."""
    from repro.traces.transforms import concat, shift_time
    from tests.conftest import make_trace

    base = make_trace([0.0, 1.0], num_extents=8)
    for trace in (shift_time(base, 2.5), concat([base, base], gap_s=1.0, name="a b")):
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        assert load_trace(path).name == trace.name


def test_plain_names_written_verbatim(tmp_path, trace):
    """Names without metacharacters keep the old on-disk representation,
    so files from older writers stay loadable and vice versa."""
    path = tmp_path / "plain.csv"
    save_trace(trace, path)
    header = path.read_text().splitlines()[0]
    assert f"name={trace.name}" in header


# -- field-conversion errors carry file/line context -------------------------


def test_bad_num_extents_header_has_context(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=eight\n"
        "time,kind,extent,offset,size\n"
    )
    with pytest.raises(TraceFormatError, match=r"bad\.csv:1: num_extents"):
        load_trace(path)


@pytest.mark.parametrize("row,label", [
    ("zero,R,1,0,4096", "time"),
    ("0.5,R,one,0,4096", "extent"),
    ("0.5,R,1,nil,4096", "offset"),
    ("0.5,R,1,0,4k", "size"),
    ("0.5,R,1,0,99999999999999999999", "size does not fit in 64 bits"),
    # Rows the vectorized pass must refuse, leaving the row parser to name
    # them. numpy truncates to the field width: a 1-character kind would
    # read RR as R.
    ("0.5,RR,1,0,4096", "kind must be R or W, got 'RR'"),
    # numpy's fixed-width strings drop trailing NULs: R\0 would read as R.
    ("0.5,R\0,1,0,4096", r"kind must be R or W, got 'R\\x00'"),
    # numpy strips \x1c-\x1f around a number as whitespace; int() does not.
    ("0.5,R,1,0,\x1c4096", r"size is not an integer: '\\x1c4096'"),
])
def test_bad_numeric_field_has_context(tmp_path, row, label):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        f"{row}\n"
    )
    with pytest.raises(TraceFormatError, match=rf"bad\.csv:3: {label}"):
        load_trace(path)


# -- hypothesis round-trip properties ----------------------------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=0, max_size=24,
)

_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32),
        st.booleans(),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=2**53),  # large byte offsets
        st.integers(min_value=1, max_value=2**40),
    ),
    max_size=20,
)


def _build(name, rows):
    import numpy as np

    from repro.traces.model import Trace

    rows = sorted(rows, key=lambda r: r[0])
    return Trace(
        name=name,
        num_extents=64,
        times=np.asarray([r[0] for r in rows], dtype=np.float64),
        kinds=np.asarray([0 if r[1] else 1 for r in rows], dtype=np.int8),
        extents=np.asarray([r[2] for r in rows], dtype=np.int64),
        offsets=np.asarray([r[3] for r in rows], dtype=np.int64),
        sizes=np.asarray([r[4] for r in rows], dtype=np.int64),
    )


@settings(max_examples=40, deadline=None)
@given(name=_names, rows=_rows, gz=st.booleans())
def test_roundtrip_property(tmp_path_factory, name, rows, gz):
    trace = _build(name, rows)
    path = tmp_path_factory.mktemp("hyp") / ("t.csv.gz" if gz else "t.csv")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.num_extents == trace.num_extents
    assert len(loaded) == len(trace)
    # Times are written with 9 fractional digits; everything else exactly.
    assert np.allclose(loaded.times, trace.times, atol=1e-9, rtol=0)
    assert np.array_equal(loaded.kinds, trace.kinds)
    assert np.array_equal(loaded.extents, trace.extents)
    assert np.array_equal(loaded.offsets, trace.offsets)
    assert np.array_equal(loaded.sizes, trace.sizes)


# -- the vectorized pass against the row parser ------------------------------
#
# load_trace parses the body in one numpy pass and hands whatever that pass
# refuses to the row parser, which defines the format. Patching the pass to
# refuse everything therefore gives the row parser's answer.


def _outcome(path):
    """``load_trace(path)`` as comparable data: the name, extent count and
    each column's dtype, contiguity and bytes, or the exception raised."""
    try:
        trace = load_trace(path)
    except Exception as exc:
        return type(exc), str(exc)
    return trace.name, trace.num_extents, [
        (column.dtype.str, column.flags.c_contiguous, column.tobytes())
        for column in (trace.times, trace.kinds, trace.extents, trace.offsets, trace.sizes)
    ]


def _row_parser_outcome(path):
    with mock.patch.object(trace_io, "_parse_columns", lambda fh: None):
        return _outcome(path)


_KIND_TOKENS = ["RR", "RRR", " R", "R ", "r", "w", '"R"', "", "Q", "R\0", "W\0R"]
_NUMBER_TOKENS = [
    "1_0", "+1", "\u0663", " 1", "1 ", "\xa01", "1\u2028", "inf", "-inf", "nan", "1e400",
    "1.0", "1e3", "-1", "0", "-0", "-0.0", "0x10", "", " ", "5\0", '"5"', "R",
    "\x1c1", "1\x1f", "\x0c1", "1\x85", "\u0968",
    "99999999999999999999", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809",
]


@st.composite
def _trace_files(draw):
    """A native trace file's bytes: canonical rows mixed with adversarial
    tokens, in a varied layout."""
    bad_percent = draw(st.sampled_from([0, 3, 25]))
    lines = ["# repro-trace v1 name=x num_extents=64", "time,kind,extent,offset,size"]
    time_s = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        time_s += draw(st.sampled_from([0.0, 0.25, 1.5, 1e-9, 1234.5]))
        fields = [
            f"{time_s:.9f}",
            draw(st.sampled_from("RW")),
            str(draw(st.integers(min_value=0, max_value=63))),
            str(draw(st.integers(min_value=0, max_value=2**53))),
            str(draw(st.integers(min_value=1, max_value=2**40))),
        ]
        for i in range(5):
            if draw(st.integers(min_value=0, max_value=99)) < bad_percent:
                fields[i] = draw(st.sampled_from(_KIND_TOKENS if i == 1 else _NUMBER_TOKENS))
        if draw(st.integers(min_value=0, max_value=99)) < bad_percent:
            fields = (fields + ["1"])[:draw(st.integers(min_value=0, max_value=6))]
        lines.append(",".join(fields))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode()


@settings(max_examples=300, deadline=None)
@given(data=_trace_files(), gz=st.booleans())
def test_vectorized_pass_matches_row_parser(tmp_path_factory, data, gz):
    """Columns byte for byte with the same dtypes, or the same exception
    with the same message."""
    path = tmp_path_factory.mktemp("diff") / ("t.csv.gz" if gz else "t.csv")
    path.write_bytes(gzip.compress(data) if gz else data)
    assert _outcome(path) == _row_parser_outcome(path)


def test_non_ascii_body_takes_the_row_parser(tmp_path):
    """numpy's integer parser reads U+0968 (DEVANAGARI DIGIT TWO) as 2360,
    where int() reads 2; the row parser decides."""
    path = tmp_path / "digits.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        "0.5,R,\u0968,0,5\n",
        encoding="utf-8",
    )
    assert load_trace(path).extents.tolist() == [2]


@settings(max_examples=40, deadline=None)
@given(name=_names, rows=_rows, gz=st.booleans())
def test_vectorized_pass_runs(tmp_path_factory, name, rows, gz):
    """The row parser is a fallback only: every file save_trace writes
    loads without it, except a header-only one, which numpy refuses."""
    trace = _build(name, rows)
    path = tmp_path_factory.mktemp("pass") / ("t.csv.gz" if gz else "t.csv")
    save_trace(trace, path)
    with mock.patch.object(trace_io, "_parse_rows", side_effect=AssertionError("row parser ran")):
        if not rows:
            with pytest.raises(AssertionError, match="row parser ran"):
                load_trace(path)
            return
        loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.num_extents == trace.num_extents
    assert np.allclose(loaded.times, trace.times, atol=1e-9, rtol=0)
    for column in ("kinds", "extents", "offsets", "sizes"):
        assert np.array_equal(getattr(loaded, column), getattr(trace, column))
