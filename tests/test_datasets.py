"""Ingestion, splitting, and the two synthetic generator families."""

import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrspace import commands, datasets
from corrspace.core import TimeSeries
from corrspace.datasets import (
    Dataset,
    SplitDataset,
    gen_example1,
    gen_example2,
    load_csv,
    save_csv,
    split,
)
from corrspace.embed import NetworkParams, features_matrix
from corrspace.errors import (
    ConstantSeries,
    CorrSpaceError,
    DegenerateOutput,
    EmptyFile,
    InvalidM,
    MissingArtifact,
    ParseError,
    RaggedRows,
    TooSmall,
    UsageError,
)
from oracles import corr_direct


def write(path, text):
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- load_csv

def test_load_csv_basic(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3,4,5,6,7,8\n2,4,6,8,10,12,14,16\n5,3,8,1,9,2,7,4\n")
    ds = load_csv(p, "csv")
    assert (ds.n, ds.length) == (3, 8)
    np.testing.assert_array_equal(ds.ids, [0, 1, 2])
    assert ds.values[1][3] == 8.0


def test_load_csv_id_column(tmp_path):
    p = write(tmp_path / "d.csv", "7,1,2,3,4\n9,4,3,2,1\n")
    ds = load_csv(p, "csv_id")
    np.testing.assert_array_equal(ds.ids, [7, 9])
    assert ds.length == 4


def test_load_ucr_drops_label(tmp_path):
    p = write(tmp_path / "d.tsv", "1\t0.5\t0.1\t0.9\t0.3\n2\t0.2\t0.8\t0.4\t0.6\n")
    ds = load_csv(p, "ucr")
    assert ds.length == 4  # columns - 1
    assert ds.values[0][0] == 0.5


def test_load_csv_ragged(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3,4\n1,2,3\n")
    with pytest.raises(RaggedRows) as exc:
        load_csv(p, "csv")
    assert exc.value.line == 2


def test_load_csv_non_numeric(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3,4\n1,x,3,4\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p, "csv")
    assert exc.value.line == 2


def test_load_csv_empty(tmp_path):
    p = write(tmp_path / "d.csv", "")
    with pytest.raises(EmptyFile):
        load_csv(p, "csv")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(MissingArtifact):
        load_csv(tmp_path / "absent.csv", "csv")


def test_load_csv_directory_is_missing(tmp_path):
    with pytest.raises(MissingArtifact, match="data file not found"):
        load_csv(tmp_path, "csv")


def test_load_csv_unknown_format(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3\n4,5,7\n")
    with pytest.raises(ValueError, match="unknown format 'tsv'"):
        load_csv(p, "tsv")


def test_load_csv_short_series(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3\n")
    with pytest.raises(ParseError):
        load_csv(p, "csv")


def test_constant_rows_dropped_with_warning(tmp_path, caplog):
    p = write(tmp_path / "d.csv", "1,2,3,4\n5,5,5,5\n4,3,2,1\n")
    with caplog.at_level("WARNING"):
        ds = load_csv(p, "csv")
    assert ds.n == 2
    assert ds.n_constant_dropped == 1
    assert any("constant" in rec.message for rec in caplog.records)
    # ids keep the original data-row positions
    np.testing.assert_array_equal(ds.ids, [0, 2])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(ids=np.array([3, 1, 4]), values=rng.standard_normal((3, 16)) * 1e6)
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    back = load_csv(str(p), "csv_id")
    np.testing.assert_array_equal(back.ids, ds.ids)
    np.testing.assert_array_equal(back.values, ds.values)  # 17 sig digits: exact


def test_save_csv_matches_per_value_format(tmp_path):
    values = np.random.default_rng(4).standard_normal((5, 6)) * 10.0 ** np.arange(-150, 150, 60)[:, None]
    values[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
    ds = Dataset(ids=np.array([-2**63, 0, 17, 2**63 - 1, 5]), values=values)
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    want = ""
    for rid, row in zip(ds.ids, ds.values):
        want += ",".join([str(int(rid))] + [repr(float(x)) for x in row]) + "\n"
    assert p.read_text() == want


# +-0, the least subnormal, the least normal and the largest double
_EDGES = [sign * x for x in (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308) for sign in (1.0, -1.0)]
# finite doubles: any bit pattern (subnormals among them), the edge values,
# and decimals printed at 1-17 significant digits
_FINITE = (
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite)
    | st.sampled_from(_EDGES)
    | st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 17)).map(
        lambda xd: float(f"{xd[0]:.{xd[1]}g}")
    ).filter(np.isfinite)  # 2e+308 is inf
)


@st.composite
def finite_datasets(draw):
    """A Dataset of finite doubles with distinct int64 ids, some of them
    beyond +-2**53; each row ends in 1.0, 2.0, so none is constant and every
    row loads."""
    n, width = draw(st.integers(1, 6)), draw(st.integers(2, 10))
    values = np.array(draw(st.lists(_FINITE, min_size=n * width, max_size=n * width))).reshape(n, width)
    any_int64 = st.integers(-(2**63), 2**63 - 1)
    ids = draw(st.lists(st.integers(-(2**53) + 1, 2**53 - 1) | any_int64, min_size=n, max_size=n, unique=True))
    return Dataset(ids=ids, values=np.hstack([values, np.tile([1.0, 2.0], (n, 1))]))


def rows_by(reader, path, fmt):
    """`reader` (`datasets._vectorised_rows` or `_loop_rows`) on a text handle of `path`, opened as `load_csv` opens it."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return reader(fh, fmt)


def assert_same_rows(rows, ds):
    ids, values, n_constant = rows
    assert np.asarray(ids).tolist() == ds.ids.tolist() and n_constant == 0
    assert np.asarray(values, dtype=np.float64).tobytes() == ds.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(ds=finite_datasets())
def test_save_csv_round_trips_every_finite_double(ds):
    with tempfile.TemporaryDirectory() as tmp:
        p, again = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        save_csv(ds, p)
        vectorised = rows_by(datasets._vectorised_rows, p, "csv_id")
        if all(abs(rid) < 2**53 for rid in ds.ids.tolist()):  # np.abs overflows at -2**63
            assert_same_rows(vectorised, ds)
        else:
            assert vectorised is None  # such an id is read by the loop, exactly
        assert_same_rows(rows_by(datasets._loop_rows, p, "csv_id"), ds)
        save_csv(load_csv(str(p), "csv_id"), again)
        assert again.read_bytes() == p.read_bytes()


@settings(max_examples=100, deadline=None)
@given(ds=finite_datasets())
def test_files_written_with_17_digits_load_as_before(ds):
    # the 0.1.0 writer's layout: `%.17g` for every value
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old.csv", Path(tmp) / "new.csv"
        old.write_text("".join(f"{rid}," + ",".join(f"{v:.17g}" for v in row) + "\n" for rid, row in zip(ds.ids, ds.values)))
        save_csv(ds, new)
        for loader in (load_csv, load_by_loop):
            assert outcome(loader, str(old), "csv_id") == outcome(loader, str(new), "csv_id")
        assert_same_rows(rows_by(datasets._loop_rows, old, "csv_id"), ds)


# ------------------------------------------- vectorised reader vs the loop

def load_by_loop(path, fmt):
    """`load_csv` with the vectorised reader switched off: the line-by-line reference."""
    with mock.patch.object(datasets, "_vectorised_rows", lambda fh, fmt: None):
        return load_csv(path, fmt)


def outcome(loader, path, fmt):
    """Everything a caller can see of one load: the data bits, or the error."""
    try:
        ds = loader(path, fmt)
    except CorrSpaceError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return ds.ids.tolist(), ds.values.shape, ds.values.tobytes(), ds.n_constant_dropped


def assert_paths_agree(path, fmt):
    assert outcome(load_csv, path, fmt) == outcome(load_by_loop, path, fmt)


AGREEMENT_CASES = {
    "blank lines": ("csv", "\n1,2,3,4\n\n5,6,7,9\n\n"),
    "crlf": ("csv", "1,2,3,4\r\n5,6,7,9\r\n"),
    "hash line first": ("csv", "# header\n1,2,3,4\n"),
    "hash line after rows": ("csv", "1,2,3,4\n# note\n"),
    "quoted fields": ("csv", '"1",2,3,4\n5,"6",7,9\n'),
    "spaces around tokens": ("csv", " 1 , 2,3 ,4\n5 ,6, 7,9 \n"),
    "underscore digits": ("csv", "1_000,2,3,4\n5,6,7,9\n"),
    "non-ascii digit": ("csv", "\u0661,2,3,4\n"),
    "trailing comma": ("csv", "1,2,3,4,\n5,6,7,9,\n"),
    "whitespace-only line": ("csv", "1,2,3,4\n  \n5,6,7,9\n"),
    "ragged after good rows": ("csv", "1,2,3,4\n5,6,7,9\n1,2,3\n"),
    "short series": ("csv", "1,2,3\n4,5,6\n"),
    "short series after a blank line": ("csv", "\n1,2,3\n"),
    "one column": ("csv", "1\n2\n"),
    "some rows constant": ("csv", "1,2,3,4\n0,-0,0,0\n5,5,5,5\n4,3,2,1\n"),
    "all rows constant": ("csv", "5,5,5,5\n2,2,2,2\n"),
    "single row": ("csv", "1,2,3,4\n"),
    "empty file": ("csv", ""),
    "only blank lines": ("csv", "\n\n"),
    "nan after good rows": ("csv", "1,2,3,4\n\n1,nan,1,1\n"),
    "overflow to inf": ("csv", "1,2,3,4\n1e400,2,3,4\n"),
    "ucr tab rows": ("ucr", "1\t0.5\t0.1\t0.9\t0.3\n2\t0.2\t0.8\t0.4\t0.6\n"),
    "ucr constant row": ("ucr", "1\t3\t3\t3\t3\n2\t1\t2\t3\t4\n"),
    "ucr label only": ("ucr", "1\t2\t3\t4\n"),
    "ucr nan label": ("ucr", "nan\t1\t2\t3\t4\n"),
    "ucr commas": ("ucr", "1,2,3,4,5\n"),
    "csv_id ids as floats": ("csv_id", "7.0,1,2,3,4\n9,4,3,2,1\n"),
    "csv_id fractional id": ("csv_id", "7.9,1,2,3,4\n-3.5,4,3,2,1\n"),
    "csv_id int64 extremes": ("csv_id", "-9223372036854775808,1,2,3,4\n9223372036854774784,4,3,2,1\n"),
    "csv_id id past int64": ("csv_id", "1,1,2,3,4\n9223372036854775808,4,3,2,1\n"),
    "csv_id huge id": ("csv_id", "1e30,1,2,3,4\n"),
    "csv_id inf id": ("csv_id", "-inf,1,2,3,4\n"),
    "csv_id short": ("csv_id", "1,2,3,4\n"),
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_vectorised_reader_agrees_with_loop(tmp_path, case):
    fmt, text = AGREEMENT_CASES[case]
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    assert_paths_agree(str(p), fmt)


@pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "+NAN", "inf", "-Inf", "+INFINITY", "infinity", "1e999"])
def test_non_finite_value_is_a_parse_error(tmp_path, token):
    p = write(tmp_path / "d.csv", f"1,2,3,4\n\n5,6,{token},8\n1,nan,2,3\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p, "csv")
    assert type(exc.value) is ParseError and exc.value.line == 3


def test_csv_id_outside_int64_is_a_parse_error(tmp_path):
    for token in ("9223372036854775808", "-9223372036854775809", "9223372036854775807.0"):
        p = write(tmp_path / "d.csv", f"1,1,2,3,4\n{token},4,3,2,1\n")
        for loader in (load_csv, load_by_loop):
            with pytest.raises(ParseError, match="outside the int64 range") as exc:
                loader(p, "csv_id")
            assert exc.value.line == 2


@pytest.mark.parametrize("rid", [2**53 - 1, -(2**53 - 1), 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63)])
@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
def test_csv_id_round_trips_exactly_at_the_edges(tmp_path, loader, rid):
    # a float64 holds every id inside +-2**53, so the vectorised reader takes
    # the file; past that it defers to the loop, which reads the id exactly
    ds = Dataset(ids=[rid, 7], values=[[1.0, 2.0, 3.0, 5.0], [4.0, 3.0, 2.0, 0.5]])
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    assert (rows_by(datasets._vectorised_rows, p, "csv_id") is None) == (abs(rid) >= 2**53)
    back = loader(str(p), "csv_id")
    assert back.ids.tolist() == [rid, 7]
    assert back.values.tobytes() == ds.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from(["csv", "csv_id", "ucr"]),
    n=st.integers(1, 8),
    length=st.integers(4, 12),
    digits=st.integers(1, 17),
    scale=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
    constant=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_vectorised_reader_agrees_with_loop_on_random_matrices(fmt, n, length, digits, scale, seed, constant):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length)) * 10.0**scale
    values[np.array(constant[:n])] = values[np.array(constant[:n]), :1]
    lead = {"csv": [], "csv_id": [rng.permutation(4 * n)[:n] - n], "ucr": [rng.integers(-1, 3, n)]}[fmt]
    table = np.column_stack(lead + [values])
    delimiter = "\t" if fmt == "ucr" else ","
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        np.savetxt(p, table, fmt=["%d"] * len(lead) + [f"%.{digits}g"] * length, delimiter=delimiter)
        assert rows_by(datasets._vectorised_rows, p, fmt) is not None
        assert_paths_agree(str(p), fmt)


@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
def test_repeated_csv_id_is_a_parse_error_naming_its_line(tmp_path, loader):
    p = write(tmp_path / "d.csv", "7,1,2,3,4\n8,1,2,3,5\n\n7.0,4,3,2,1\n")
    with pytest.raises(ParseError) as exc:
        loader(p, "csv_id")
    assert type(exc.value) is ParseError and exc.value.line == 4
    assert "line 1" in str(exc.value)


def test_repeated_id_of_a_dropped_constant_row_still_loads(tmp_path):
    # only the rows that reach the Dataset must have distinct ids
    p = write(tmp_path / "d.csv", "7,1,1,1,1\n7,1,2,3,4\n")
    assert_paths_agree(p, "csv_id")
    ds = load_csv(p, "csv_id")
    assert ds.ids.tolist() == [7] and ds.n_constant_dropped == 1


@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
@pytest.mark.parametrize("field", ["0." + "0" * 140_000 + "1", '"1' + "0" * 140_000 + '"'])
def test_field_past_the_csv_limit_is_a_parse_error(tmp_path, loader, field):
    # the first field numpy's reader would take, the second it would not
    p = write(tmp_path / "d.csv", f"1,2,3,4,5\n2,3,{field},5\n")
    with pytest.raises(ParseError) as exc:
        loader(p, "csv")
    assert exc.value.line == 2 and "field larger than field limit" in str(exc.value)


@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
@pytest.mark.parametrize("fmt", ["csv", "csv_id", "ucr"])
def test_bytes_that_are_not_utf8_are_a_parse_error_naming_the_line(tmp_path, loader, fmt):
    sep = "\t" if fmt == "ucr" else ","
    good = "".join(sep.join(str(i + j) for j in range(6)) + "\n" for i in range(3000))  # past one decoded chunk
    p = tmp_path / "d.csv"
    p.write_bytes(good.encode() + sep.join(["1", "2", "\xff\xfe", "4", "5", "6"]).encode("latin-1") + b"\n")
    with pytest.raises(ParseError) as exc:
        loader(str(p), fmt)
    assert type(exc.value) is ParseError and exc.value.line == 3001 and "not UTF-8" in str(exc.value)


# random bytes, and files near the formats' grammar with bytes that break it
_CSV_PIECES = [b"1", b"-2.5", b",", b"\t", b"\n", b"\r", b'"', b"\xff", b"\xc3", b"\x00", b"nan", b"e9"]


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=200) | st.lists(st.sampled_from(_CSV_PIECES), max_size=60).map(b"".join))
def test_random_bytes_give_only_typed_errors(blob):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_bytes(blob)
        for fmt in ("csv", "csv_id", "ucr"):
            for loader in (load_csv, load_by_loop):
                try:
                    loader(str(p), fmt)
                except CorrSpaceError:
                    pass


_RAGGED_LINE_2 = "1,2,3,4,5\n6,7,8\n9,10,11,12,13\n"


@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
@pytest.mark.parametrize(
    "line_4", [b"\xff\xfe,1,2,3,4\n", b"1,2,0." + b"0" * 140_000 + b"1,4,5\n"], ids=["not-utf8", "past-field-limit"]
)
def test_a_file_with_several_faults_names_its_first_bad_line(tmp_path, loader, line_4):
    # each row is checked as `csv` reads it: bytes that are not UTF-8, or a
    # field past `csv`'s limit, on line 4 come after the ragged line 2
    p = tmp_path / "d.csv"
    p.write_bytes(_RAGGED_LINE_2.encode() + line_4)
    with pytest.raises(RaggedRows) as exc:
        loader(str(p), "csv")
    assert str(exc.value) == "line 2: expected 5 columns, got 3"


@pytest.mark.parametrize("loader", [load_csv, load_by_loop])
def test_bytes_that_are_not_utf8_in_a_record_of_two_lines_name_the_record(tmp_path, loader):
    p = tmp_path / "d.csv"
    p.write_bytes(b'1,2,3,4\n"5\n",6,7,\xff\n')  # record 2 spans lines 2 and 3
    with pytest.raises(ParseError) as exc:
        loader(str(p), "csv")
    assert str(exc.value) == "line 2: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("quoted", [False, True])
def test_load_csv_opens_a_file_once(tmp_path, quoted):
    ds = Dataset(ids=np.arange(400), values=np.random.default_rng(3).standard_normal((400, 64)))
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    if quoted:  # numpy's reader takes no quotes: the loop reads the handle again
        p.write_text(p.read_text().replace("0,", '"0",', 1))
    assert p.stat().st_size > 131_072  # larger than `csv`'s default field limit
    with mock.patch("builtins.open", wraps=open) as opened:
        back = load_csv(str(p), "csv_id")
    assert [call.args[0] for call in opened.call_args_list] == [str(p)]
    assert back.values.tobytes() == ds.values.tobytes()


def load_from_pipe(path, fmt):
    """`load_csv` of the bytes of `path` written to a pipe, read as /dev/fd/N as a shell's `<(cat path)` is."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(Path(path).read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_csv(f"/dev/fd/{read_end}", fmt)
    finally:
        os.close(read_end)
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.parametrize("fault", [None, "ragged", "not-utf8"])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "csv_id", "ucr"])
def test_a_piped_file_loads_as_its_path(tmp_path, fmt, quoted, fault):
    # larger than a pipe's buffer; a quoted field sends it to the loop after numpy's pass
    sep = "\t" if fmt == "ucr" else ","
    rows = np.random.default_rng(6).standard_normal((400, 64)).tolist()
    rows[7] = [2.5] * 64  # constant: dropped and counted
    lines = [sep.join(map(repr, ([] if fmt == "csv" else [i]) + row)).encode() for i, row in enumerate(rows)]
    if quoted:
        lines[0] = b'"' + lines[0].replace(sep.encode(), b'"' + sep.encode(), 1)
    if fault:
        lines[300] += sep.encode() + (b"1" if fault == "ragged" else b"\xff")
    p = tmp_path / "d.csv"
    p.write_bytes(b"\n".join(lines) + b"\n")
    assert p.stat().st_size > 65_536
    from_path = outcome(load_csv, str(p), fmt)
    assert outcome(load_from_pipe, str(p), fmt) == from_path
    if fault is None:
        assert from_path[3] == 1  # the constant row
    else:
        assert from_path[2].startswith("line 301: ")


def test_line_loop_holds_no_copy_of_the_file(tmp_path):
    # the loop keeps the parsed rows, not the file's tokens beside them
    values = np.random.default_rng(4).standard_normal((1000, 128))
    p = tmp_path / "d.csv"
    p.write_text("".join(f'"{i}",' + ",".join(map(repr, row)) + "\n" for i, row in enumerate(values.tolist())))
    assert rows_by(datasets._vectorised_rows, p, "csv_id") is None and p.stat().st_size > 2_000_000
    tracemalloc.start()
    try:
        ds = load_csv(str(p), "csv_id")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.values.tobytes() == values.tobytes()
    assert peak < 4 * p.stat().st_size


def test_long_lines_of_short_fields_still_load(tmp_path):
    values = np.random.default_rng(5).standard_normal((2, 8000))
    p = tmp_path / "d.csv"
    np.savetxt(p, values, fmt="%.17g", delimiter=",")
    assert p.stat().st_size > 2 * 131_072
    np.testing.assert_array_equal(load_csv(str(p), "csv").values, values)
    assert_paths_agree(str(p), "csv")


def test_dataset_unique_ids_enforced():
    with pytest.raises(ValueError):
        Dataset(ids=np.array([1, 1]), values=np.zeros((2, 4)))


@pytest.mark.parametrize("build", [
    lambda: Dataset(ids=np.array([1, 1]), values=np.zeros((2, 4))),
    lambda: Dataset(ids=np.arange(3), values=np.zeros((2, 4))),
    lambda: Dataset(ids=np.arange(4), values=np.zeros(4)),
    lambda: SplitDataset(train_ids=np.array([1, 2]), val_ids=np.array([2]), test_ids=np.array([3]), seed=0),
    lambda: TimeSeries(id=1, values=np.array([1.0])),
    lambda: TimeSeries(id=1, values=np.array([1.0, np.nan, 2.0])),
    lambda: NetworkParams(weights=[np.zeros((3, 4))], biases=[], seed=0),
    lambda: NetworkParams(weights=[np.zeros((3, 4))], biases=[np.zeros(2)], seed=0),
    lambda: NetworkParams(weights=[np.zeros((3, 4)), np.zeros((2, 2))], biases=[np.zeros(3), np.zeros(2)], seed=0),
], ids=[
    "repeated-id", "row-counts", "not-2d", "overlap", "short-series", "non-finite-series",
    "layer-counts", "bias-shape", "unchained-layers",
])
def test_constructors_refuse_bad_arguments_with_a_usage_error(build):
    with pytest.raises(UsageError):
        build()


def test_rows_for_preserves_order():
    ds = Dataset(ids=np.array([5, 3, 9]), values=np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(ds.rows_for([9, 5]), [2, 0])


def test_rows_for_names_the_first_missing_id():
    ds = Dataset(ids=np.array([5, 3, 9]), values=np.arange(12.0).reshape(3, 4))
    with pytest.raises(MissingArtifact, match="id 4 "):
        ds.rows_for([9, 4, 7])


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.integers(-40, 40), unique=True, max_size=30),
    want=st.lists(st.integers(-45, 45), max_size=30),
)
def test_rows_for_equals_a_dict_lookup(ids, want):
    # ids out of order, repeats in the request, a missing id anywhere, an
    # empty request and an empty dataset, against the lookup it replaced
    ds = Dataset(ids=np.array(ids, dtype=np.int64), values=np.zeros((len(ids), 2)))
    lookup = {rid: row for row, rid in enumerate(ids)}
    missing = [rid for rid in want if rid not in lookup]
    if missing:
        with pytest.raises(MissingArtifact, match=f"id {missing[0]} "):
            ds.rows_for(want)
    else:
        rows = ds.rows_for(want)
        assert rows.dtype == np.int64 and rows.tolist() == [lookup[rid] for rid in want]


# -------------------------------------------------------------------- split

def test_split_exact_ratios():
    ds = Dataset(ids=np.arange(100), values=np.random.default_rng(5).standard_normal((100, 8)))
    sp = split(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(sp.train_ids), len(sp.val_ids), len(sp.test_ids)) == (80, 10, 10)


def test_split_remainder_to_train():
    ds = Dataset(ids=np.arange(101), values=np.random.default_rng(7).standard_normal((101, 8)))
    sp = split(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(sp.train_ids), len(sp.val_ids), len(sp.test_ids)) == (81, 10, 10)


def test_split_deterministic_and_disjoint():
    ds = Dataset(ids=np.arange(50), values=np.random.default_rng(9).standard_normal((50, 8)))
    a, b = split(ds, seed=4), split(ds, seed=4)
    np.testing.assert_array_equal(a.train_ids, b.train_ids)
    np.testing.assert_array_equal(a.test_ids, b.test_ids)
    union = np.concatenate([a.train_ids, a.val_ids, a.test_ids])
    assert sorted(union.tolist()) == list(range(50))


@pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.2), (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
def test_split_ratios_must_be_three_summing_to_one(ratios):
    ds = Dataset(ids=np.arange(20), values=np.random.default_rng(13).standard_normal((20, 8)))
    with pytest.raises(ValueError, match="ratios must be three values summing to 1"):
        split(ds, ratios)


@pytest.mark.parametrize("ratios", [
    (1.2, -0.1, -0.1), (0.5, float("nan"), 0.5), (float("nan"),) * 3, (float("inf"), float("-inf"), 1.0),
])
def test_split_refuses_the_ratios_the_cli_refuses(ratios):
    ds = Dataset(ids=np.arange(20), values=np.random.default_rng(13).standard_normal((20, 8)))
    with pytest.raises(UsageError, match="ratios must be three values summing to 1"):
        split(ds, ratios)
    with pytest.raises(UsageError, match="ratios must be three comma-separated nonnegative numbers"):
        commands._parse_ratios(",".join(map(str, ratios)))


def test_split_too_small():
    ds = Dataset(ids=np.arange(9), values=np.random.default_rng(11).standard_normal((9, 8)))
    with pytest.raises(TooSmall):
        split(ds)


def test_split_overlap_rejected():
    with pytest.raises(ValueError):
        SplitDataset(train_ids=np.array([1, 2]), val_ids=np.array([2]), test_ids=np.array([3]), seed=0)


# ---------------------------------------------------------- normalization

def test_normalized_matrix_bits_in_blocks_and_subsets():
    # the reference is the one-pass formula; 2200 rows of 128 cross four block
    # edges, and normalizing each series on its own gives the same bits
    rng = np.random.default_rng(5)
    values = rng.standard_normal((2200, 128)) * rng.uniform(0.1, 1e3, size=(2200, 1)) + rng.uniform(-50, 50, size=(2200, 1))
    ds = Dataset(ids=np.arange(2200) * 3, values=values)
    centered = values - values.mean(axis=1, keepdims=True)
    want = centered / np.linalg.norm(centered, axis=1, keepdims=True)
    assert ds.normalized_matrix().tobytes() == want.tobytes()
    rows = rng.permutation(2200)[:700]
    assert ds.normalized_matrix(rows).tobytes() == want[rows].tobytes()
    assert np.vstack([ds.normalized_matrix([i]) for i in range(ds.n)]).tobytes() == want.tobytes()
    np.testing.assert_array_equal(ds.values, values)  # the dataset is left as it was


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e-155, 1e154, 1e200, 1e306])
def test_normalization_at_extreme_magnitudes(scale):
    # rows 0-5 scaled, the rest ordinary; |values| stay below 8, so 1e306 does not overflow
    rng = np.random.default_rng(11)
    base = rng.standard_normal((12, 128)) + rng.uniform(-1, 1, size=(12, 1))
    values = base.copy()
    values[:6] *= scale
    ds = Dataset(ids=np.arange(12), values=values)
    want = Dataset(ids=np.arange(12), values=base).normalized_matrix()
    h = ds.normalized_matrix()
    one = np.vstack([ds.normalized_matrix([i]) for i in range(ds.n)])
    assert one.tobytes() == h.tobytes()
    assert np.isfinite(h).all()
    assert np.abs(np.linalg.norm(h, axis=1) - 1.0).max() <= 1e-15
    assert np.abs(h - want).max() <= 1e-15
    assert h[6:].tobytes() == want[6:].tobytes()  # ordinary rows keep their bits
    assert ds.normalized_matrix(np.array([7, 2])).tobytes() == h[[7, 2]].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalized_matrix_non_finite_row_is_degenerate(bad):
    values = np.random.default_rng(2).standard_normal((600, 8))
    values[517, 3] = bad
    ds = Dataset(ids=np.arange(600) + 1000, values=values)
    with pytest.raises(DegenerateOutput, match="series 1517 "):
        ds.normalized_matrix()
    with pytest.raises(DegenerateOutput, match="series 1517 "):
        ds.normalized_matrix(np.array([3, 517]))
    assert np.isfinite(ds.normalized_matrix(np.array([3, 516]))).all()


@pytest.mark.parametrize("row", [[2.0] * 6, [0.1] * 6, [-3e-300] * 5])
def test_normalized_matrix_constant_row_raises_naming_its_id(row):
    # [0.1] * 6 has a mean that rounds away from 0.1, so its centered norm is not 0
    values = np.zeros((600, len(row)))
    values[:, 0] = 1.0
    values[517] = row
    ds = Dataset(ids=np.arange(600) + 1000, values=values)
    with pytest.raises(ConstantSeries, match="series 1517 "):
        ds.normalized_matrix()
    with pytest.raises(ConstantSeries, match="series 1517 "):
        ds.normalized_matrix(np.array([3, 517]))
    assert ds.normalized_matrix(np.array([3, 516])).shape == (2, len(row))


# ------------------------------------------------------------- gen_example1

def test_gen_example1_quarter_identity():
    ds = gen_example1(20, 64, seed=1)
    h = ds.normalized_matrix()
    f = features_matrix(h)[:, :32]  # coefficients 1..16
    for i, j in [(0, 1), (2, 17), (5, 19)]:
        corr = float(h[i] @ h[j])
        d2 = float(np.sum((f[i] - f[j]) ** 2))
        assert abs(4.0 * d2 - (2.0 - 2.0 * corr)) <= 1e-8


def test_gen_example1_single_series():
    ds = gen_example1(1, 16, seed=0)
    assert (ds.n, ds.length) == (1, 16)
    ds.normalized_matrix()  # non-constant, normalizable


def test_gen_example1_real_and_deterministic():
    a = gen_example1(5, 32, seed=42)
    b = gen_example1(5, 32, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.dtype == np.float64
    # spectrum structure: second quarter copies the first
    f = features_matrix(a.values[:1])[0]
    c = f[0::2] + 1j * f[1::2]  # coefficients 1..16
    np.testing.assert_allclose(c[0:7], c[8:15], atol=1e-9)


def test_gen_example1_m_validation():
    for bad in (6, 9, 4):
        with pytest.raises(InvalidM):
            gen_example1(3, bad)


# ------------------------------------------------------------- gen_example2

def test_gen_example2_low_coefficient_spread():
    # coefficients 1..m vary across series with spread ~ eps, the rest at
    # unit scale
    ds = gen_example2(200, 64, 4, eps=0.01, seed=3)
    c = np.fft.fft(ds.values, axis=1) / np.sqrt(64)
    low = c[:, 1:5]
    rest = c[:, 5:32]
    low_spread = np.abs(low - low.mean(axis=0)).std()
    rest_spread = np.abs(rest - rest.mean(axis=0)).std()
    assert low_spread < 0.05  # ~ eps * sigma scale
    assert rest_spread > 0.2  # unit scale


def test_gen_example2_eps_zero_exactly_equal():
    ds = gen_example2(10, 32, 3, eps=0.0, seed=5)
    c = np.fft.fft(ds.values, axis=1) / np.sqrt(32)
    low = c[:, 1:4]
    np.testing.assert_allclose(low - low[0], 0, atol=1e-12)


def test_gen_example2_real_and_deterministic():
    a = gen_example2(5, 16, 2, seed=11)
    b = gen_example2(5, 16, 2, seed=11)
    np.testing.assert_array_equal(a.values, b.values)
    a.normalized_matrix()


def test_gen_example2_m_validation():
    with pytest.raises(InvalidM):
        gen_example2(3, 15, 2)  # odd M
    with pytest.raises(InvalidM):
        gen_example2(3, 16, 8)  # m >= M/2
    with pytest.raises(InvalidM):
        gen_example2(3, 16, 0)


def test_generators_pass_core_invariants():
    for ds in (gen_example1(8, 32, seed=2), gen_example2(8, 32, 3, seed=2)):
        assert np.all(np.isfinite(ds.values))
        for row in ds.normalized_matrix():
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-9
        # Parseval over the whole spectrum: DC, then coefficients 1..15 twice
        # (the upper half mirrors them) and the Nyquist 16 once
        f = features_matrix(ds.values)
        energy = ds.values.sum(axis=1) ** 2 / 32 + 2.0 * np.sum(f**2, axis=1) - np.sum(f[:, -2:] ** 2, axis=1)
        assert np.abs(energy - np.sum(ds.values**2, axis=1)).max() <= 1e-9


def test_pearson_identity_on_generated_data():
    ds = gen_example1(6, 32, seed=13)
    h = ds.normalized_matrix()
    corr = corr_direct(ds.values[0], ds.values[1])
    assert corr == pytest.approx(float(h[0] @ h[1]), abs=1e-12)
