import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdopt import cli, exchange, metrics, seeding, simulate
from subdopt import ingest as ingest_module
from subdopt.ingest import IngestError, IngestSpec, _ingest_rows, ingest
from subdopt.metrics import SingularMomentError


def write_csv(path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 3))
    y = 1.0 + x @ np.ones(3) + rng.standard_normal(120)
    lines = ["a,b,c,resp"]
    for row, yy in zip(x, y):
        lines.append(",".join(f"{v:.8f}" for v in row) + f",{yy:.8f}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def csv_file(tmp_path):
    return write_csv(tmp_path / "data.csv")


class TestIngest:
    def test_happy_path(self, csv_file):
        ds = ingest(IngestSpec(str(csv_file), response="resp"))
        assert ds.x.shape == (120, 3)
        assert ds.y.shape == (120,)
        assert ds.columns == ["a", "b", "c"]
        assert ds.n_rejected == 0

    def test_column_subset(self, csv_file):
        ds = ingest(IngestSpec(str(csv_file), response="resp",
                               covariates=["a", "c"]))
        assert ds.x.shape == (120, 2)
        assert ds.columns == ["a", "c"]

    def test_skip_rows_and_log(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("junk\njunk\nu,v\n1.0,10.0\n2.0,100.0\n")
        ds = ingest(IngestSpec(str(path), skip_rows=2, log_columns=["v"]))
        np.testing.assert_allclose(ds.x[:, 1], np.log([10.0, 100.0]))
        assert ds.x.shape == (2, 2)

    @pytest.mark.parametrize("parse", [ingest, _ingest_rows])
    @pytest.mark.parametrize("header, error", [
        (True, "no header row found"),
        (False, "all rows rejected or file empty")])
    def test_skip_rows_past_the_end(self, csv_file, parse, header, error):
        # skipping stops at the end of the file; a skip that reads on
        # fails the test after 5 s instead of hanging it
        def stuck(signum, frame):
            pytest.fail("skip_rows read on past the end of the file")
        old = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(5)
        try:
            with pytest.raises(IngestError, match=error):
                parse(IngestSpec(str(csv_file), header=header,
                                 skip_rows=10**18))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1.0,2.0\n1.5,oops\n")
        with pytest.raises(IngestError, match=r"bad\.csv:3.*'oops'.*'v'"):
            ingest(IngestSpec(str(path)))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"u,v\n1.0,2.0\n1.5,2.5\n{cell},3.0\n")
        with pytest.raises(IngestError,
                           match=rf"bad\.csv:4.*non-finite.*'{cell}'.*'u'"):
            ingest(IngestSpec(str(path)))

    def test_missing_column(self, csv_file, row_parses):
        for fields in (dict(response="nope"),
                       dict(response="resp", covariates=["a", "nope"]),
                       dict(response="resp", covariates=["a", 7]),
                       dict(log_columns=["nope"])):
            spec = IngestSpec(str(csv_file), **fields)
            with pytest.raises(IngestError, match="nope|7") as got:
                ingest(spec)
            assert row_parses == []   # raised without a row-by-row read
            with pytest.raises(IngestError) as ref:
                _ingest_rows(spec)
            assert str(got.value) == str(ref.value)

    def test_response_overlap(self, csv_file):
        with pytest.raises(IngestError, match="covariate"):
            ingest(IngestSpec(str(csv_file), response="a",
                              covariates=["a", "b"]))

    def test_repeated_covariate(self, csv_file):
        # a name and an index that resolve to the same column
        with pytest.raises(IngestError, match="'b' is listed more than once"):
            ingest(IngestSpec(str(csv_file), response="resp",
                              covariates=["b", "c", 1]))

    def test_blank_lines_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("u,v\n1,2\n\n3,4\n\n")
        ds = ingest(IngestSpec(str(path)))
        assert ds.x.shape == (2, 2)
        assert ds.n_rejected == 2

    def test_no_header(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("1,2\n3,4\n")
        ds = ingest(IngestSpec(str(path), header=False))
        assert ds.columns == ["c0", "c1"]
        ds = ingest(IngestSpec(str(path), header=False, response="c1"))
        assert (ds.columns, ds.response_column) == (["c0"], "c1")
        assert (ds.x.tolist(), ds.y.tolist()) == ([[1.0], [3.0]], [2.0, 4.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            ingest(IngestSpec(str(path), header=False))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("u,v\n1,2\n1,2,3\n")
        # a bad row is reported before a column name that does not resolve
        for response in (None, "nope"):
            with pytest.raises(IngestError, match=r"r\.csv:3"):
                ingest(IngestSpec(str(path), response=response))

    @pytest.mark.parametrize("text, needle", [
        (b"u,v\n1,2\n\xe9,3\n", "can't decode"),
        (b"u,v\n1,2\n" + b"1" * 200_000 + b",3\n", "field limit"),
        (b"u,v\n1,2\n" + b"0" * 200_000 + b",3\n", "field limit"),
        (b"u" * 200_000 + b",v\n1,2\n", "field limit"),
    ], ids=["not-utf8", "huge-cell", "huge-zero-cell", "huge-header"])
    def test_unreadable_text_is_ingest_error(self, tmp_path, text, needle):
        path = tmp_path / "l.csv"
        path.write_bytes(text)
        with pytest.raises(IngestError, match=rf"l\.csv: .*{needle}"):
            ingest(IngestSpec(str(path)))


@pytest.fixture
def row_parses(monkeypatch):
    """Calls of the row-by-row fallback made through `ingest`."""
    calls = []

    def spy(spec, *path):
        calls.append(spec)
        return _ingest_rows(spec, *path)

    monkeypatch.setattr(ingest_module, "_ingest_rows", spy)
    return calls


class TestIngestPaths:
    """Which parser reads which file; both give the same arrays."""

    @pytest.mark.parametrize("covariates", [None, ["c", 0]])
    def test_numeric_block_takes_fast_path(self, csv_file, row_parses,
                                           covariates):
        spec = IngestSpec(str(csv_file), response="resp",
                          covariates=covariates)
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert row_parses == []
        assert (ds.chunks, ref.chunks) == (1, 0)
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.columns == ref.columns

    def test_unused_text_column_takes_fast_path(self, csv_file, row_parses):
        lines = csv_file.read_text().splitlines()
        path = csv_file.parent / "ids.csv"
        path.write_text("\n".join([f"id,{lines[0]}"] + [
            f"row-{i},{line}" for i, line in enumerate(lines[1:])]) + "\n")
        spec = IngestSpec(str(path), response="resp",
                          covariates=["b", "a", "c"])
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert row_parses == []
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.columns == ref.columns == ["b", "a", "c"]
        plain = ingest(IngestSpec(str(csv_file), response="resp",
                                  covariates=["b", "a", "c"]))
        assert ds.x.tobytes() == plain.x.tobytes()

    def test_quoted_id_column_takes_fast_path(self, csv_file, row_parses):
        # quoted ids hold the delimiter and quotes; a used cell is quoted;
        # the file ends with a blank line
        lines = csv_file.read_text().splitlines()
        path = csv_file.parent / "qids.csv"
        path.write_text("\n".join([f"id,{lines[0]}"] + [
            f'"row {i}, ""{i}""",{line}' for i, line in enumerate(lines[1:])]
            + ['"last",1,2,3,"4"']) + "\n\n")
        spec = IngestSpec(str(path), response="resp",
                          covariates=["b", "a", "c"])
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert row_parses == []
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.columns == ref.columns == ["b", "a", "c"]
        assert (ds.x[-1].tolist(), ds.y[-1]) == ([2.0, 1.0, 3.0], 4.0)
        assert ds.n_rejected == ref.n_rejected == 1

    def test_quoted_cell_across_lines_falls_back(self, tmp_path, row_parses):
        # a blank line inside a quoted field is part of the field, not a
        # rejected row
        path = tmp_path / "m.csv"
        path.write_text('id,u,v\n"a\n\nb",1,2\n\n"c",3,4\n')
        spec = IngestSpec(str(path), covariates=["u", "v"])
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert len(row_parses) == 1
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.n_rejected == ref.n_rejected == 1

    @pytest.mark.parametrize("text, covariates, x", [
        ('u,v,w,x,z\n1,a"b,"p\n\nq",a"b,5\n', ["u", "z"], [[1.0, 5.0]]),
        ('u,v,w\n1,a"b,"p\n\n', ["u"], [[1.0]]),
        ('u,v,w\n1,2,3\n4,a"b,"p\n', ["u"], [[1.0], [4.0]]),
    ], ids=["blank-line-inside", "trailing-blank-line-inside",
            "last-line-inside"])
    def test_blank_line_in_field_opened_by_stray_quotes_falls_back(
            self, tmp_path, row_parses, text, covariates, x):
        # each line holds an even number of quotes, yet a quoted field
        # runs past its line, so csv reads a blank line, or the end of
        # the file, into it
        path = tmp_path / "b.csv"
        path.write_text(text)
        spec = IngestSpec(str(path), covariates=covariates)
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert len(row_parses) == 1
        assert ds.x.tolist() == ref.x.tolist() == x
        assert ds.n_rejected == ref.n_rejected == 0

    def test_quoted_delimiter_falls_back(self, tmp_path, row_parses):
        # split on commas the short row has one field per header name and
        # numbers in the used columns; csv reads it as two fields
        path = tmp_path / "q.csv"
        path.write_text('id,a,b,c\nr1,1,2,3\n"x,5,y",7\n')
        with pytest.raises(IngestError, match=":3: expected 4 fields, got 2"):
            ingest(IngestSpec(str(path), covariates=["a", "c"]))
        assert len(row_parses) == 1

    def test_whitespace_lines_and_crlf(self, tmp_path, row_parses):
        path = tmp_path / "w.csv"
        path.write_bytes(b"u,v\r\n1,2\r\n  \r\n\t\r\n3,4\r\n\r\n")
        ds = ingest(IngestSpec(str(path)))
        assert row_parses == []
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.n_rejected == 3

    @pytest.mark.parametrize("header", [True, False])
    def test_bare_cr_line_endings_fall_back(self, csv_file, row_parses,
                                            header):
        # a range splits lines only at \n, and np.loadtxt rejects the
        # unquoted \r inside the one line it then reads
        text = csv_file.read_bytes()
        if not header:
            text = text.split(b"\n", 1)[1]
        path = csv_file.parent / "cr.csv"
        path.write_bytes(text.replace(b"\n", b"\r"))
        spec = IngestSpec(str(path), header=header, response=3)
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert (len(row_parses), ds.chunks) == (1, 0)
        plain = ingest(IngestSpec(str(csv_file), response="resp"))
        assert ds.x.tobytes() == ref.x.tobytes() == plain.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes() == plain.y.tobytes()

    def test_quoted_cr_in_unused_column_takes_fast_path(self, csv_file,
                                                        row_parses):
        lines = csv_file.read_text().splitlines()
        path = csv_file.parent / "qcr.csv"
        path.write_bytes("\n".join([f"id,{lines[0]}"] + [
            f'"x\ry",{line}' for line in lines[1:]]).encode() + b"\n")
        spec = IngestSpec(str(path), response="resp",
                          covariates=["a", "b", "c"])
        ds, ref = ingest(spec), _ingest_rows(spec)
        assert (row_parses, ds.chunks) == ([], 1)
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.n_rejected == ref.n_rejected == 0

    def test_cells_only_float_reads_fall_back(self, tmp_path, row_parses):
        path = tmp_path / "f.csv"
        path.write_text('u,v\n1_0,"4"\n2,3\n')
        ds = ingest(IngestSpec(str(path)))
        assert len(row_parses) == 1
        assert ds.chunks == 0
        assert ds.x.tolist() == [[10.0, 4.0], [2.0, 3.0]]

    def test_single_column_without_header(self, tmp_path, row_parses):
        path = tmp_path / "one.csv"
        path.write_text("1.5\n-2\n3e2\n")
        ds = ingest(IngestSpec(str(path), header=False))
        assert row_parses == []
        assert ds.x.tolist() == [[1.5], [-2.0], [300.0]]
        assert ds.columns == ["c0"]

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("u,v\n")
        rc = cli.main(["select", "--input", str(path), "--method", "oss",
                       "--k", "1", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            f"error: {path}: all rows rejected or file empty\n"

    def test_empty_file_with_header_exits_3(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_bytes(b"")
        rc = cli.main(["select", "--input", str(path), "--method", "oss",
                       "--k", "1", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            f"error: {path}: no header row found\n"

    def test_skip_rows_with_header(self, tmp_path, row_parses):
        path = tmp_path / "s.csv"
        path.write_text('exported by "tool", v2\n# a;b;c\nu,v,w\n'
                        "1,2,3\n\n4,5,6\n7,8,10\n2,9,1\n")
        out = tmp_path / "o"
        rc = cli.main(["select", "--input", str(path), "--skip-rows", "2",
                       "--response", "w", "--method", "iboss", "--k", "4",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert row_parses == []
        report = json.loads((out / "report.json").read_text())
        assert (report["n"], report["p"], report["rejected_rows"]) == \
            (4, 2, 1)


NUMBER_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.17g}"),
    st.floats(1e-300, 1e300).map(lambda v: f"{v:.3e}"))
MALFORMED_QUOTES = ['"4', 'a"b', '"a"b', '""', '""4""']
ODD_CELLS = st.sampled_from(
    ["1_0", '"4"', "\u0664", "nan", "-inf", "1e999", "0x1", "", " ", "1d5",
     " 2.5 ", "\u00a07", "+.5", "5.", "-0", "1,5", "#3", "1 2", "\x00"]
    + MALFORMED_QUOTES)
LINE_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
TEXT_CELLS = st.sampled_from(
    ["id7", "r-1", "", "x y", '"a,b"', '"q"', "n/a", "1", "nan", "#"]
    + MALFORMED_QUOTES)


@st.composite
def ingest_file(draw):
    """Text of a small delimited file, and the spec that reads it.

    Some files carry one or two text columns that `covariates` leaves
    out; their quoted cells may hold the delimiter, a line ending or a
    blank line.  After a cell with a stray quote (`a"b`), a quoted cell
    that holds a blank line can leave an even number of quotes on each
    line.  A run of blank lines ahead of the rows may be long enough to
    fill the first of `split_ranges()`'s byte ranges."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " ", "|", "\n"]))
    ending = draw(LINE_ENDINGS)
    text_cell = st.one_of(TEXT_CELLS, st.sampled_from(
        [f'"x{delimiter}y"', f'"x{ending}y"', f'"x{ending}{ending}y"',
         f'"x{ending}{ending}y"z"']))
    width = draw(st.integers(1, 3))
    total = width + draw(st.sampled_from([0, 0, 1, 2]))
    text_cols = draw(st.lists(st.integers(0, total - 1), unique=True,
                              min_size=total - width,
                              max_size=total - width))
    odd = draw(st.booleans())
    cell = st.one_of(NUMBER_CELLS, ODD_CELLS) if odd else NUMBER_CELLS
    header = draw(st.booleans())
    skip_rows = draw(st.integers(0, 2))
    lines = [draw(st.sampled_from(["junk", "a,b,c", '"a,b",c']))
             for _ in range(skip_rows)]
    if header:
        lines.append(delimiter.join(f"h{j}" for j in range(total)))
    lines += [""] * draw(st.sampled_from([0, 0, 0, 300]))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(
            ["row", "row", "row", "blank", "space", "ragged"]
            if odd else ["row", "row", "row", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from(
                [" ", "\t ", "\u00a0", f" {delimiter} "])))
        else:
            n = total + (draw(st.sampled_from([-1, 1])) if kind == "ragged"
                         else 0)
            cells = [draw(text_cell) if j in text_cols else draw(cell)
                     for j in range(n)]
            lines.append(delimiter.join(cells))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    response = draw(st.sampled_from([None, 0, total - 1]))
    covariates = None
    if text_cols:
        covariates = [j for j in range(total)
                      if j not in text_cols and j != response]
        if header and draw(st.booleans()):
            covariates = [f"h{j}" for j in covariates]
    return text, dict(delimiter=delimiter, header=header,
                      skip_rows=skip_rows, response=response,
                      covariates=covariates)


def _outcome(parse, spec):
    try:
        return parse(spec)
    except IngestError as exc:
        return str(exc)


def _matches_row_parser(fuzz_dir, case):
    text, fields = case
    path = fuzz_dir / "ingest.txt"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    spec = IngestSpec(str(path), **fields)
    ref, got = _outcome(_ingest_rows, spec), _outcome(ingest, spec)
    if isinstance(ref, str):
        assert got == ref
        return
    assert not isinstance(got, str), got
    assert (got.x.shape, got.x.tobytes()) == (ref.x.shape, ref.x.tobytes())
    assert (ref.y is None and got.y is None) or \
        got.y.tobytes() == ref.y.tobytes()
    assert (got.columns, got.response_column, got.n_rejected) == \
        (ref.columns, ref.response_column, ref.n_rejected)


@settings(max_examples=200)
@given(case=ingest_file())
def test_ingest_matches_row_parser(fuzz_dir, case):
    _matches_row_parser(fuzz_dir, case)


@contextlib.contextmanager
def split_ranges(cpus=4):
    """Cut every numeric block into up to `cpus` byte ranges."""
    with mock.patch.object(ingest_module, "CHUNK", 1), \
            mock.patch.object(os, "sched_getaffinity", create=True,
                              new=lambda pid: set(range(cpus))):
        yield


@settings(max_examples=200)
@given(case=ingest_file())
def test_split_ingest_matches_row_parser(fuzz_dir, case):
    with split_ranges():
        _matches_row_parser(fuzz_dir, case)


def _cuts(path, first):
    """The offsets at which `ingest` cuts the block starting at `first`."""
    with open(path, "rb") as fh:
        return [a for a, _ in ingest_module._ranges(fh, first)[1:]]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitParse:
    """A numeric block parsed in several byte ranges, one per process."""

    def test_same_arrays_and_no_child_left(self, csv_file, row_parses):
        spec = IngestSpec(str(csv_file), response="resp",
                          covariates=["c", "a"])
        with split_ranges():
            ds = ingest(spec)
        _no_child_left()
        ref = ingest(spec)
        assert (ds.chunks, ref.chunks, row_parses) == (4, 1, [])
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        # column-major, for the column passes of scaling and seeding
        assert ds.x.flags.f_contiguous and ref.x.flags.f_contiguous

    @pytest.mark.parametrize("row, cell", [
        (1, "oops"), (-2, "oops"), (1, "nan"), (-2, "nan"), (1, "1e999"),
        (-2, "1e999"),
    ], ids=["first-range", "last-range", "first-range-nan",
            "last-range-nan", "first-range-1e999", "last-range-1e999"])
    def test_bad_cell_names_location(self, csv_file, row_parses, row, cell):
        # a non-finite cell is found by each range's own check
        lines = csv_file.read_text().splitlines(keepends=True)
        lines[row] = f"0.1,0.2,{cell},0.3\n"
        csv_file.write_text("".join(lines))
        spec = IngestSpec(str(csv_file), response="resp")
        with split_ranges():
            cuts = _cuts(csv_file, len(lines[0]))
            with pytest.raises(IngestError) as got:
                ingest(spec)
        _no_child_left()
        assert len(cuts) == 3
        at = len("".join(lines[:row]))   # the bad line's offset
        assert (at < cuts[0]) if row == 1 else (at >= cuts[-1])
        with pytest.raises(IngestError) as ref:
            _ingest_rows(spec)
        line = row % len(lines) + 1
        kind = "non-numeric" if cell == "oops" else "non-finite"
        assert str(got.value) == str(ref.value) == \
            f"{csv_file}:{line}: {kind} value {cell!r} in column 'c'"
        assert len(row_parses) == 1

    @pytest.mark.parametrize("blank_first", [False, True],
                             ids=["later-ranges", "first-range"])
    def test_ranges_of_blank_lines_only(self, tmp_path, row_parses,
                                        blank_first):
        # the later ranges, or the first, hold only blank lines: they
        # parse to zero rows; the quoted id column is left unused
        path = tmp_path / "blank.csv"
        rows = "".join(f'"r{i}",{i}.5,{i * i}.25,{-i}.75\n'
                       for i in range(6))
        blank = "\n" * 300
        path.write_text("id,a,b,y\n" + (blank + rows if blank_first
                                        else rows + blank))
        spec = IngestSpec(str(path), response="y", covariates=["a", "b"])
        with split_ranges():
            ds = ingest(spec)
        _no_child_left()
        ref = _ingest_rows(spec)
        assert (ds.chunks, row_parses) == (4, [])
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.n_rejected == ref.n_rejected == 300

    def test_pipe_is_read_once(self, csv_file, row_parses, temp_dir):
        # a pipe has no byte offsets, and a second read finds it drained:
        # it is copied to a temporary file, which is cut into ranges
        fifo = csv_file.parent / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                                  args=(csv_file.read_bytes(),))
        writer.start()
        with split_ranges():
            ds = ingest(IngestSpec(str(fifo), response="resp"))
        writer.join(timeout=10)
        _no_child_left()
        ref = ingest(IngestSpec(str(csv_file), response="resp"))
        assert (ds.chunks, row_parses, list(temp_dir.iterdir())) == \
            (4, [], [])
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.checksum == ref.checksum == \
            hashlib.sha256(csv_file.read_bytes()).hexdigest()

    def test_short_array_from_a_child_falls_back(self, csv_file,
                                                 row_parses, monkeypatch):
        # each child's head promises one row more than its array holds,
        # so the parent's read of its last column ends early
        parent, parse = os.getpid(), ingest_module._parse_range

        def over_promise(*args):
            data, (rows, *rest) = parse(*args)
            if os.getpid() != parent:
                rows += 1
            return data, (rows, *rest)

        monkeypatch.setattr(ingest_module, "_parse_range", over_promise)
        spec = IngestSpec(str(csv_file), response="resp")
        with split_ranges():
            ds = ingest(spec)
        _no_child_left()
        ref = _ingest_rows(spec)
        assert (len(row_parses), ds.chunks) == (1, 0)
        assert ds.x.tobytes() == ref.x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()

    def test_quoted_field_across_ranges_falls_back(self, tmp_path,
                                                   row_parses):
        # line 3 opens a quoted field that csv carries into line 4, the
        # first of the next range; each range on its own parses
        path = tmp_path / "q.csv"
        path.write_text('u,s,t\n1,2,3\n4,a"b,"' + "p" * 30
                        + '\n6,x"y,q"\n')
        text = path.read_text()
        spec = IngestSpec(str(path), covariates=["u"])
        with split_ranges():
            assert _cuts(path, 6) == [text.index("6,x")]
            with pytest.raises(IngestError) as got:
                ingest(spec)
        assert len(row_parses) == 1
        with pytest.raises(IngestError) as ref:
            _ingest_rows(spec)
        assert str(got.value) == str(ref.value) == \
            f"{path}:3: expected 3 fields, got 4"


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """The directory `tempfile` makes its files in, for this test."""
    path = tmp_path / "temp"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


@contextlib.contextmanager
def process_substitution(data):
    """The path `<(cat file)` gives for a file holding `data`: /dev/fd/N,
    N the read end of a pipe that a thread fills and closes."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    r, w = os.pipe()

    def write():
        with open(w, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        writer.join(timeout=10)
        os.close(r)


class TestPipeInput:
    """`--input <(cat data.csv)`: a pipe, which can be read only once."""

    def test_checksum_is_the_inputs(self, csv_file, tmp_path, temp_dir):
        argv = ["select", "--response", "resp", "--method", "valg1",
                "--k", "12", "--K", "6"]
        with process_substitution(csv_file.read_bytes()) as path:
            assert cli.main(argv + ["--input", path, "--out",
                                    str(tmp_path / "pipe")]) == 0
        _no_child_left()
        assert list(temp_dir.iterdir()) == []
        assert cli.main(argv + ["--input", str(csv_file), "--out",
                                str(tmp_path / "file")]) == 0
        manifests = [json.loads((tmp_path / out / "manifest.json")
                                .read_text()) for out in ("pipe", "file")]
        assert [m["input_checksum"] for m in manifests] == \
            [hashlib.sha256(csv_file.read_bytes()).hexdigest()] * 2
        assert (tmp_path / "pipe" / "report.json").read_bytes() == \
            (tmp_path / "file" / "report.json").read_bytes()

    def test_bad_cell_names_its_line(self, tmp_path, capsys, temp_dir):
        rows = np.random.default_rng(12).standard_normal((100, 11))
        lines = [",".join(f"x{j}" for j in range(1, 11)) + ",y\n"]
        lines += [",".join(f"{v:.6f}" for v in row) + "\n" for row in rows]
        lines[50] = lines[50].replace(lines[50].split(",")[1], "oops", 1)
        with process_substitution("".join(lines).encode()) as path:
            rc = cli.main(["select", "--input", path, "--response", "y",
                           "--method", "oss", "--k", "10", "--out",
                           str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == \
            f"error: {path}:51: non-numeric value 'oops' in column 'x2'\n"
        assert list(temp_dir.iterdir()) == []


class TestSelectCommand:
    def test_valg1_select(self, csv_file, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["select", "--input", str(csv_file),
                       "--response", "resp", "--method", "valg1",
                       "--k", "12", "--K", "6", "--seed", "1",
                       "--out", str(out)])
        assert rc == 0
        idx = np.loadtxt(out / "indices.txt", dtype=int)
        assert idx.size == 12
        report = json.loads((out / "report.json").read_text())
        assert 0 < report["efficiency"]["d_eff"] <= 1
        assert "exchange" in report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "select"
        assert manifest["input_checksum"]
        assert sorted(manifest["timings"]) == \
            ["efficiency_s", "exchange_s", "ingest_chunks", "ingest_s",
             "pool_s", "scale_s", "seed_s", "select_seconds",
             "total_seconds"]
        assert all(t > 0 for t in manifest["timings"].values())
        # one byte range: the file is far below ingest.CHUNK
        assert manifest["timings"]["ingest_chunks"] == 1

    def test_iboss_k_equals_n(self, csv_file, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["select", "--input", str(csv_file),
                       "--response", "resp", "--method", "iboss",
                       "--k", "120", "--out", str(out)])
        assert rc == 0
        idx = np.loadtxt(out / "indices.txt", dtype=int)
        assert sorted(idx) == list(range(120))

    def test_K_beyond_int64(self, csv_file, tmp_path):
        # an end of the pool holds at most every row, so any K past
        # 2n selects the same rows
        written = []
        for K in ("9223372036854775807", "18446744073709551616"):
            out = tmp_path / K
            rc = cli.main(["select", "--input", str(csv_file),
                           "--response", "resp", "--method", "alg1",
                           "--k", "12", "--K", K, "--out", str(out)])
            assert rc == 0
            written.append((out / "indices.txt").read_bytes())
        assert written[0] == written[1]

    def test_unknown_method_is_usage_error(self, csv_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["select", "--input", str(csv_file),
                      "--method", "magic", "--k", "5",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_ingest_failure_exit_code(self, tmp_path):
        rc = cli.main(["select", "--input", str(tmp_path / "missing.csv"),
                       "--method", "oss", "--k", "5",
                       "--out", str(tmp_path / "o")])
        assert rc != 0

    @pytest.mark.parametrize("args", [
        ["--method", "iboss", "--k", "0"],
        ["--method", "alg1", "--k", "0"],
        ["--method", "oss", "--k", "121"],
        ["--method", "alg1", "--k", "10", "--K", "0"],
        ["--method", "valg1", "--k", "10", "--K", "-3"],
        ["--method", "alg1", "--k", "10", "--iterations", "0"],
        ["--method", "alg1", "--k", "120"],
        ["--method", "valg1", "--k", "120"],
        ["--method", "oss", "--k", "5", "--delimiter", ";;"],
        ["--method", "oss", "--k", "5", "--delimiter", ""],
        ["--method", "oss", "--k", "5", "--out", "data.csv"],
        ["--method", "oss", "--k", "5", "--covariates", "a,a"],
        ["--method", "oss", "--k", "5", "--skip-rows", "-1"],
        ["--method", "uniform", "--k", "5", "--seed", "-1"],
        ["--method", "alg1", "--k", "5", "--seed-method", "uniform",
         "--seed", "-3"],
        ["--method", "oss", "--k", "5", "--log-columns", "b"],
        ["--method", "oss", "--k", "5", "--K", "0"],
        ["--method", "oss", "--k", "5", "--iterations", "0"],
        ["--method", "oss", "--k", "5", "--seed", "-1"],
    ], ids=["iboss-k0", "alg1-k0", "k-above-n", "K0", "K-negative",
            "iterations0", "alg1-k-n", "valg1-k-n", "delimiter-two-chars",
            "delimiter-empty", "out-is-a-file", "covariate-repeated",
            "skip-rows-negative", "seed-negative", "uniform-seed-negative",
            "log-of-negative", "oss-K0", "oss-iterations0",
            "oss-seed-negative"])
    def test_bad_sizes_are_config_errors(self, csv_file, tmp_path, capsys,
                                         args):
        # also bad delimiters and an --out that names an existing file
        args = [str(tmp_path / a) if a == "data.csv" else a for a in args]
        rc = cli.main(["select", "--input", str(csv_file),
                       "--response", "resp", "--out", str(tmp_path / "o")]
                      + args)
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("args, message", [
        (["--K", "0"], "K must be >= 1, got 0"),
        (["--K", "-3"], "K must be >= 1, got -3"),
        (["--iterations", "0"], "alg1_iterations must be >= 1, got 0"),
    ], ids=["K0", "K-negative", "iterations0"])
    def test_bad_size_names_its_field(self, csv_file, tmp_path, capsys,
                                      args, message):
        rc = cli.main(["select", "--input", str(csv_file), "--response",
                       "resp", "--method", "alg1", "--k", "10",
                       "--out", str(tmp_path / "o")] + args)
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, what", [
        ("--covariates", "covariate"), ("--log-columns", "log-transform"),
    ])
    def test_empty_column_list_is_config_error(self, csv_file, tmp_path,
                                               capsys, flag, what):
        # an empty list names the column '', not every column or none
        rc = cli.main(["select", "--input", str(csv_file), "--response",
                       "resp", "--method", "oss", "--k", "5", flag, "",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            f"error: {what} column '' not found; available: " \
            f"['a', 'b', 'c', 'resp']\n"

    @pytest.mark.parametrize("command, args", [
        ("select", ["--method", "uniform", "--k", "1"]),
        ("hull", ["--selection", "y.csv", "--pairs", "a,b"]),
    ], ids=["select", "hull"])
    def test_no_covariate_column_is_input_error(self, tmp_path, capsys,
                                                command, args):
        # the file's only column is the response
        path = tmp_path / "y.csv"
        path.write_text("y\n1\n2\n3\n")
        args = [str(path) if a == "y.csv" else a for a in args]
        rc = cli.main([command, "--input", str(path), "--response", "y",
                       "--out", str(tmp_path / "o")] + args)
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            "error: no covariate column; available: ['y']\n"

    @pytest.mark.parametrize("method, seed_method, ends", [
        *[pytest.param("alg1", s, (1.7e308, -1.7e308), id=s)
          for s in ("oss", "iboss")],
        *[pytest.param(m, "oss", (1.5e308, -1e307), id=f"half-range-{m}")
          for m in ("uniform", "iboss", "oss", "alg1", "valg1")]])
    def test_overflowing_range_is_input_error(self, tmp_path, capsys,
                                              method, seed_method, ends):
        # every cell is finite, but hi - lo of column 0 is not; with the
        # half-range ends hi - lo is, and 2(hi - lo) is not
        x = np.random.default_rng(3).standard_normal((300, 3))
        x[7, 0], x[200, 0] = ends
        path = tmp_path / "big.csv"
        np.savetxt(path, x, fmt="%.17g", delimiter=",", header="a,b,c",
                   comments="")
        rc = cli.main(["select", "--input", str(path), "--method", method,
                       "--seed-method", seed_method, "--k", "12",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            "error: column(s) whose range overflows: [0]\n"

    def test_non_finite_cell_is_config_error(self, csv_file, tmp_path):
        lines = csv_file.read_text().splitlines()
        lines[5] = "0.1,nan,0.2,1.0"
        csv_file.write_text("\n".join(lines) + "\n")
        rc = cli.main(["select", "--input", str(csv_file), "--method", "alg1",
                       "--k", "8", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST

    @pytest.mark.parametrize("method", ["uniform", "alg1"])
    def test_singular_selection_is_numerical_error(self, tmp_path, capsys,
                                                   method):
        # covariate b repeats a: every selection's moments are singular
        rng = np.random.default_rng(4)
        a, y = rng.standard_normal((2, 60))
        path = tmp_path / "dup.csv"
        path.write_text("a,b,y\n" + "".join(
            f"{u:.8f},{u:.8f},{v:.8f}\n" for u, v in zip(a, y)))
        rc = cli.main(["select", "--input", str(path), "--response", "y",
                       "--method", method, "--k", "10",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == \
            "numerical error: 3x3 moment matrix is singular\n"

    def test_replay_identical(self, csv_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["select", "--input", str(csv_file), "--response", "resp",
                  "--method", "alg1", "--k", "10", "--K", "4",
                  "--seed", "3", "--out", str(out1)])
        rc = cli.main(["replay", str(out1 / "manifest.json"), str(out2)])
        assert rc == 0
        # a replay records the same argv, so it replays in turn
        out3 = tmp_path / "r3"
        assert cli.main(["replay", str(out2 / "manifest.json"),
                         str(out3)]) == 0
        for out in (out2, out3):
            assert (out1 / "report.json").read_bytes() \
                == (out / "report.json").read_bytes()
            assert (out1 / "indices.txt").read_bytes() \
                == (out / "indices.txt").read_bytes()


class TestSimulateCommand:
    def config(self, tmp_path, **kw):
        cfg = dict(n=200, p=2, k=16, K=4, rho=0.5, repetitions=2,
                   methods=["uniform", "valg1"], rng_seed=9)
        cfg.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config",
                       str(self.config(tmp_path)), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["records"]) == 4
        assert set(report["aggregates"]) == {"uniform", "valg1"}
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("method,")

    def test_records_have_stable_keys(self, tmp_path):
        out = tmp_path / "sim"
        cli.main(["simulate", "--config", str(self.config(tmp_path)),
                  "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        for rec in report["records"]:
            for key in ("method", "repetition", "k", "K", "iterations",
                        "seed"):
                assert key in rec

    def test_unknown_field_named(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config",
                       str(self.config(tmp_path, bogus=1)),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        assert "bogus" in capsys.readouterr().err

    def test_outlier_preset(self, tmp_path):
        out = tmp_path / "sim"
        cfg = self.config(tmp_path, outliers={"count": 5,
                                              "mean_shift": [5.0, 0.0]})
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("module, name, exc", [
        (simulate, "ols_fit",
         SingularMomentError("selection is singular or its moments "
                             "overflow")),
        (seeding, "scale_to_unit_cube",
         seeding.ColumnRangeError("column(s) whose range overflows: [0]")),
    ], ids=["fit-fails", "range-overflows"])
    def test_every_repetition_failing(self, tmp_path, capsys, monkeypatch,
                                      module, name, exc):
        # a failed repetition is a record with its error, not an exit
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(module, name, fail)
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config", str(self.config(tmp_path)),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [r["error"] for r in report["records"]] == [str(exc)] * 4
        with open(out / "report.csv", newline="") as fh:
            assert [r["error"] for r in csv.DictReader(fh)] == \
                [str(exc)] * 4
        assert report["aggregates"] == {"uniform": {"failed": True},
                                        "valg1": {"failed": True}}
        assert capsys.readouterr().out.splitlines()[1:] == \
            ["uniform  (all repetitions failed)",
             "valg1    (all repetitions failed)"]

    @pytest.mark.parametrize("change, error", [
        # the shifted row puts 2(hi - lo) of column 0 past the largest double
        ({"p": 3, "outliers": {"count": 1, "mean_shift": [1e308, 0.0, 0.0]}},
         "column(s) whose range overflows: [0]"),
        # with y near 1e200 the squared errors overflow
        ({"beta0": 1e200}, "the squared error overflows"),
        # x beta1 overflows while y is drawn, and the mean of the shifted
        # column while the fit is set up: neither may warn
        ({"beta1": [1.7e308, -1.7e308]},
         "selection is singular or its moments overflow"),
        ({"outliers": {"count": 5, "mean_shift": [8e307, 0.0]}},
         "selection is singular or its moments overflow"),
    ], ids=["outlier-range", "fit", "response", "column-mean"])
    def test_overflow_fails_each_record(self, tmp_path, capsys, change,
                                        error):
        # each repetition is a failed record, and the report stays strict
        # JSON
        def reject(name):
            raise ValueError(f"report.json holds {name}")
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config",
                       str(self.config(tmp_path, **change)),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert [r["error"] for r in report["records"]] == [error] * 4
        assert "Traceback" not in capsys.readouterr().err

    def test_replay_identical(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["simulate", "--config", str(self.config(tmp_path)),
                  "--out", str(out1)])
        rc = cli.replay(out1 / "manifest.json", out2)
        assert rc == 0
        assert (out1 / "report.json").read_bytes() \
            == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() \
            == (out2 / "report.csv").read_bytes()


class TestBootstrapCommand:
    def test_runs(self, csv_file, tmp_path):
        cfg = tmp_path / "boot.json"
        cfg.write_text(json.dumps({
            "input": {"path": str(csv_file), "response": "resp"},
            "B": 3, "method": "oss", "k": 18, "K": 4, "rng_seed": 1}))
        out = tmp_path / "boot"
        rc = cli.main(["bootstrap", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["records"]) == 3

    def test_replay_identical(self, csv_file, tmp_path):
        cfg = tmp_path / "boot.json"
        cfg.write_text(json.dumps({
            "input": {"path": str(csv_file), "response": "resp"},
            "B": 2, "method": "iboss", "k": 12, "K": 4}))
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        cli.main(["bootstrap", "--config", str(cfg), "--out", str(out1)])
        rc = cli.replay(out1 / "manifest.json", out2)
        assert rc == 0
        assert (out1 / "report.json").read_bytes() \
            == (out2 / "report.json").read_bytes()


class TestTimingCommand:
    def test_runs_and_replay(self, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "ks": [8], "Ks": [4], "iteration_counts": [1, 2],
            "n": 120, "p": 2, "repetitions": 2, "rng_seed": 0}))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        rc = cli.main(["timing", "--config", str(cfg), "--out", str(out1)])
        assert rc == 0
        report = json.loads((out1 / "report.json").read_text())
        assert len(report["cells"]) == 2
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert all("mean_seconds" in c for c in manifest["timings"]["cells"])
        rc = cli.replay(out1 / "manifest.json", out2)
        assert rc == 0
        assert (out1 / "report.json").read_bytes() \
            == (out2 / "report.json").read_bytes()


BASE_CONFIGS = {
    "simulate": dict(n=200, p=2, k=16, K=4, repetitions=2,
                     methods=["uniform", "valg1"]),
    "timing": dict(ks=[8], Ks=[4], iteration_counts=[1, 2], n=120, p=2,
                   repetitions=2),
    "bootstrap": dict(input={"path": "data.csv", "response": "resp"}, B=3,
                      method="oss", k=18, K=4, rng_seed=1),
}


def run_config(command, cfg, workdir):
    """`subdopt <command>` on `cfg` with data.csv in workdir: (rc, stderr).
    An infinite number is written as 1e999, which JSON parses to it."""
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg).replace("Infinity", "1e999").replace(
        '"data.csv"', json.dumps(str(workdir / "data.csv"))))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(path),
                       "--out", str(workdir / "o")])
    return rc, err.getvalue()


@pytest.mark.parametrize("command, change, needle", [
    ("simulate", {"methods": []}, "methods"),
    ("simulate", {"n": "1000"}, "n must be an integer"),
    ("simulate", {"beta1": [1.0, 1.0, 1.0]}, "beta1"),
    ("simulate", {"outliers": {"count": 5, "mean_shift": [5.0]}},
     "mean_shift"),
    ("simulate", {"outliers": {"count": "5", "mean_shift": [5.0, 0.0]}},
     "outliers.count must be an integer"),
    ("timing", {"iteration_counts": [0, 1]}, "iteration_counts"),
    ("timing", {"ks": [0]}, "ks"),
    ("timing", {"Ks": [0]}, "Ks"),
    ("timing", {"n": "120"}, "n must be an integer"),
    ("timing", {"ks": 8}, "ks must be a list"),
    ("simulate", {"methods": "uniform"},
     "config field methods must be a list, got 'uniform'"),
    ("simulate", {"beta1": ["a", "b"]}, "beta1[0] must be a number"),
    ("simulate", {"outliers": {"count": -1, "mean_shift": [5.0, 0.0]}},
     "outliers.count"),
    ("simulate", {"p": 0}, "p must be >= 1, got 0"),
    ("simulate", {"rng_seed": -1}, "rng_seed"),
    ("timing", {"rho": "x"}, "rho must be a number"),
    ("timing", {"rho": 2.0}, "rho"),
    ("timing", {"rng_seed": "1"}, "rng_seed must be an integer"),
    ("timing", {"seed_method": "alg1"}, "seed_method"),
    ("bootstrap", {"B": "2"}, "B must be an integer"),
    ("bootstrap", {"input": {"path": "data.csv", "skip_rows": "1"}},
     "input.skip_rows must be an integer"),
    ("bootstrap", {"input": {"path": "data.csv", "skip_rows": -1}},
     "skip_rows must be >= 0, got -1"),
    ("bootstrap", {"input": {"path": "data.csv", "log_columns": None}},
     "input.log_columns must be a list"),
    ("bootstrap", {"input": {"path": "data.csv", "delimiter": ""}},
     "delimiter"),
    ("bootstrap", {"input": {"path": "data.csv", "covariates": "ab"}},
     "input.covariates must be a list or null"),
    ("bootstrap", {"input": {"path": "data.csv", "response": "resp",
                             "covariates": ["a", "a"]}},
     "covariate column 'a' is listed more than once"),
    ("bootstrap", {"B": 0}, "B must be >= 1"),
    ("bootstrap", {"input": {"path": "data.csv", "response": "resp",
                             "covariates": []}}, "no covariate column"),
    ("simulate", {"sigma2": -1}, "sigma2 must be >= 0"),
    ("simulate", {"methods": ["oss", "oss", "alg1"]},
     "method 'oss' is listed more than once"),
    ("timing", {"p": 0}, "p must be >= 1, got 0"),
    ("timing", {"repetitions": 0}, "repetitions must be >= 1, got 0"),
    ("timing", {"rng_seed": -1}, "rng_seed must be >= 0, got -1"),
    ("timing", {"ks": [8, 120]},
     "k = n = 120 leaves no rows for the exchange pool"),
    ("simulate", {"sigma2": np.inf}, "sigma2 must be finite"),
    ("simulate", {"beta0": -np.inf}, "beta0 must be finite"),
    ("simulate", {"beta1": [np.inf, 1.0]}, "beta1 must be finite"),
    ("simulate", {"outliers": {"count": 1, "mean_shift": [np.inf, 0.0]}},
     "outliers.mean_shift must be finite"),
    ("simulate", {"beta0": 10 ** 400},
     "config field beta0 is beyond the double range"),
    ("simulate", {"outliers": {"count": 5, "mean_shift": [10 ** 400, 0.0]}},
     "config field outliers.mean_shift[0] is beyond the double range"),
    ("simulate", {"n": 10 ** 400}, "config field n is beyond the int64 range"),
    ("simulate", {"outliers": {"count": -10 ** 400, "mean_shift": [5.0, 0.0]}},
     "config field outliers.count is beyond the int64 range"),
    ("timing", {"ks": [2 ** 63]},
     "config field ks[0] is beyond the int64 range"),
    # validation refuses these sizes before anything is allocated
    ("simulate", {"n": 2 ** 62}, "n=4611686018427387904 rows of p=2 doubles"),
    ("timing", {"n": 2 ** 62}, "n=4611686018427387904 rows of p=2 doubles"),
], ids=["simulate-empty-methods", "simulate-n-string", "simulate-beta1-length",
        "simulate-mean-shift-length", "simulate-count-string",
        "timing-iterations0", "timing-k0", "timing-K0", "timing-n-string",
        "timing-ks-not-list", "simulate-methods-string",
        "simulate-beta1-strings", "simulate-count-negative", "simulate-p0",
        "simulate-seed-negative", "timing-rho-string", "timing-rho-2",
        "timing-seed-string", "timing-seed-method-alg1",
        "bootstrap-B-string", "bootstrap-skip-rows-string",
        "bootstrap-skip-rows-negative",
        "bootstrap-log-columns-null", "bootstrap-delimiter-empty",
        "bootstrap-covariates-string", "bootstrap-covariate-repeated",
        "bootstrap-B0", "bootstrap-no-covariates",
        "simulate-sigma2-negative", "simulate-method-repeated", "timing-p0",
        "timing-repetitions0", "timing-seed-negative", "timing-k-equals-n",
        "simulate-sigma2-inf", "simulate-beta0-inf", "simulate-beta1-inf",
        "simulate-mean-shift-inf", "simulate-beta0-huge-int",
        "simulate-mean-shift-huge-int", "simulate-n-huge-int",
        "simulate-count-huge-int", "timing-ks-huge-int",
        "simulate-np-beyond-intp", "timing-np-beyond-intp"])
def test_bad_config_is_config_error(tmp_path, command, change, needle):
    write_csv(tmp_path / "data.csv")
    rc, err = run_config(command, {**BASE_CONFIGS[command], **change},
                         tmp_path)
    assert rc == cli.EXIT_INGEST
    assert err.startswith("error:") and needle in err, err


def test_size_beyond_the_address_space_is_config_error(tmp_path):
    # 10**14 rows of two doubles, 1.42 PiB, is refused at once.  A size
    # that could really be allocated must not be tried here: with
    # overcommit, such a process is killed rather than refused.
    rc, err = run_config("simulate", dict(n=10 ** 14, p=2, k=10, K=4,
                                          repetitions=1, methods=["iboss"]),
                         tmp_path)
    assert rc == cli.EXIT_INGEST
    assert err.startswith("error: out of memory: Unable to allocate") \
        and "(100000000000000, 2)" in err, err


def test_exchange_without_pool_fails_before_any_data(tmp_path, monkeypatch):
    # k = n leaves alg1 no pool rows; the config check says so before
    # repetition 0 generates its data
    calls = []
    generate = simulate.gen_mvn_equicorr
    monkeypatch.setattr(simulate, "gen_mvn_equicorr",
                        lambda *a: calls.append(a) or generate(*a))
    cfg = {**BASE_CONFIGS["simulate"], "k": 200,
           "methods": ["uniform", "alg1"]}
    rc, err = run_config("simulate", cfg, tmp_path)
    assert rc == cli.EXIT_INGEST
    assert err == "error: k = n = 200 leaves no rows for the exchange pool\n"
    assert calls == []


def test_bootstrap_checks_its_config_before_the_full_fit(tmp_path):
    # covariate b is all zeros, so the full-data fit would be singular
    a, y = np.random.default_rng(5).standard_normal((2, 60))
    (tmp_path / "data.csv").write_text("a,b,resp\n" + "".join(
        f"{u:.8f},0,{v:.8f}\n" for u, v in zip(a, y)))
    rc, err = run_config("bootstrap", {**BASE_CONFIGS["bootstrap"], "k": 0},
                         tmp_path)
    assert rc == cli.EXIT_INGEST
    assert err == "error: k must be in [1, n=60], got 0\n"


@pytest.mark.parametrize("command", sorted(BASE_CONFIGS))
def test_manifest_lists_every_rng_seed(tmp_path, command):
    # repetition (or resample) r runs on rng_seed + r
    write_csv(tmp_path / "data.csv")
    cfg = {**BASE_CONFIGS[command], "rng_seed": 5}
    rc, err = run_config(command, cfg, tmp_path)
    assert rc == cli.EXIT_OK, err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    count = cfg["B"] if command == "bootstrap" else cfg["repetitions"]
    assert manifest["rng_seeds"] == [5 + r for r in range(count)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return write_csv(tmp_path_factory.mktemp("fuzz") / "data.csv").parent


SCALARS = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                    st.floats(), st.integers(-3, 3))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))
TARGETS = {"simulate": (simulate.ExperimentConfig, "outliers",
                        simulate.OutlierSpec),
           "timing": (simulate.timing_study, None, None),
           "bootstrap": (simulate.bootstrap_mse, "input", IngestSpec)}


@st.composite
def fuzzed_config(draw):
    """A base config with one field replaced, dropped or added."""
    command = draw(st.sampled_from(sorted(BASE_CONFIGS)))
    cfg = json.loads(json.dumps(BASE_CONFIGS[command]))
    if command == "simulate":
        cfg["outliers"] = {"count": 5, "mean_shift": [5.0, 0.0]}
    target, nested, nested_target = TARGETS[command]
    names = {*inspect.signature(target).parameters, nested, "bogus"}
    paths = [(name,) for name in sorted(names - {None, "x", "y"})]
    if nested:
        paths += [(nested, name) for name in
                  [*inspect.signature(nested_target).parameters, "bogus"]]
    *parents, key = draw(st.sampled_from(paths))
    holder = cfg[parents[0]] if parents else cfg
    if draw(st.booleans()) and key in holder:
        del holder[key]
    else:
        value = draw(VALUES)
        old = holder.get(key)
        if type(value) is int and type(old) is int:
            value = min(value, old)   # never a larger size than the base
        holder[key] = value
    return command, cfg


@settings(max_examples=200)
@given(case=fuzzed_config())
def test_fuzzed_config_exits_cleanly(fuzz_dir, case):
    command, cfg = case
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as workdir:
        workdir = Path(workdir)
        (workdir / "data.csv").write_bytes(
            (fuzz_dir / "data.csv").read_bytes())
        rc, err = run_config(command, cfg, workdir)
    assert rc in (cli.EXIT_OK, cli.EXIT_INGEST, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """Real inputs for the argv fuzz: data, configs, a selection and a
    manifest, plus `cwd`, where relative `--out` paths land."""
    root = write_csv(tmp_path_factory.mktemp("argv") / "data.csv").parent
    for command, cfg in BASE_CONFIGS.items():
        (root / f"{command}.json").write_text(json.dumps(cfg).replace(
            '"data.csv"', json.dumps(str(root / "data.csv"))))
    (root / "sel.txt").write_text("".join(f"{i}\n"
                                          for i in range(0, 120, 7)))
    (root / "cwd").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["select", "--input", str(root / "data.csv"),
                         "--method", "iboss", "--k", "8",
                         "--out", str(root / "base")]) == cli.EXIT_OK
    return root


# A valid argv per command; "@name" stands for argv_dir / name.
BASE_ARGV = [
    ["select", "--input", "@data.csv", "--response", "resp", "--method",
     "alg1", "--k", "12", "--K", "4", "--out", "@out"],
    ["simulate", "--config", "@simulate.json", "--out", "@out"],
    ["bootstrap", "--config", "@bootstrap.json", "--out", "@out"],
    ["timing", "--config", "@timing.json", "--out", "@out"],
    ["hull", "--input", "@data.csv", "--response", "resp", "--selection",
     "@sel.txt", "--pairs", "0,1", "--out", "@out"],
    ["replay", "@base/manifest.json", "@out"],
]
# Replacement tokens by kind (commands and flags, paths, other values), so
# that a path is mostly replaced by a path and a value by a value.  Numbers
# stay small, so that no run is long.
ARGV_FLAGS = [
    "select", "simulate", "bootstrap", "timing", "hull", "replay",
    "--input", "--delimiter", "--no-header", "--response", "--covariates",
    "--skip-rows", "--log-columns", "--method", "--k", "--K",
    "--iterations", "--seed", "--seed-method", "--out", "--config",
    "--selection", "--pairs", "--svg", "--version", "--help",
    "-", "--", "--nope", "-k", "--k=12"]
ARGV_PATHS = [
    "@data.csv", "@sel.txt", "@simulate.json", "@timing.json",
    "@bootstrap.json", "@base/manifest.json", "@base", "@out", "@missing",
    "", "nope", "\x00", "x/y"]
ARGV_VALUES = [
    "resp", "a", "a,c", "9,3", "1,2", "oss", "iboss", "uniform", "valg1",
    "1", "3", "120", "-1", "0", ";", "\t", "nope", "1e9", "NaN", "\x00",
    "\u00e9", ",", "a,", ""]


@st.composite
def fuzzed_argv(draw):
    """A valid argv with up to three edits, or now and then a run of random
    tokens.  Most edits replace a path or a value by one of its kind, so
    that the argv still parses and the command runs on odd input."""
    anything = st.sampled_from(ARGV_FLAGS + ARGV_PATHS + ARGV_VALUES)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(anything, max_size=8))
    argv = list(draw(st.sampled_from(BASE_ARGV)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["value"] * 4 + ["flag", "drop", "insert"]))
        if op == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(anything))
            continue
        values = [i for i, a in enumerate(argv)
                  if a not in ARGV_FLAGS and not a.startswith("-")]
        pos = draw(st.sampled_from(values if op == "value" and values
                                   else range(len(argv))))
        if op == "drop":
            del argv[pos]
        elif op == "flag":
            argv[pos] = draw(st.sampled_from(ARGV_FLAGS))
        else:
            argv[pos] = draw(st.sampled_from(
                ARGV_PATHS if argv[pos].startswith("@") else ARGV_VALUES))
    return argv


@settings(max_examples=100)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(argv_dir, argv):
    argv = [str(argv_dir / a[1:]) if a.startswith("@") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_dir / "cwd")
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:   # argparse: usage, --help
                rc = exc.code
    finally:
        os.chdir(cwd)
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INGEST,
                  cli.EXIT_NUMERIC), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestHullCommand:
    def test_pairs_and_containment(self, csv_file, tmp_path):
        sel_out = tmp_path / "sel"
        cli.main(["select", "--input", str(csv_file), "--response", "resp",
                  "--method", "oss", "--k", "10", "--out", str(sel_out)])
        out = tmp_path / "hull"
        rc = cli.main(["hull", "--input", str(csv_file),
                       "--response", "resp",
                       "--selection", str(sel_out / "indices.txt"),
                       "--pairs", "a,b", "0,2", "--svg",
                       "--out", str(out)])
        assert rc == 0
        hulls = json.loads((out / "hulls.json").read_text())
        assert len(hulls["pairs"]) == 2
        for pair in hulls["pairs"]:
            assert pair["subdata_area"] <= pair["full_area"] + 1e-12
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 2
        assert svgs[0].read_text().startswith("<svg")

    def test_identity_selection_ratio_one(self, csv_file, tmp_path):
        sel = tmp_path / "all.txt"
        sel.write_text("".join(f"{i}\n" for i in range(120)))
        out = tmp_path / "hull"
        rc = cli.main(["hull", "--input", str(csv_file),
                       "--response", "resp", "--selection", str(sel),
                       "--pairs", "a,b", "--out", str(out)])
        assert rc == 0
        hulls = json.loads((out / "hulls.json").read_text())
        assert hulls["pairs"][0]["area_ratio"] == pytest.approx(1.0)

    @pytest.mark.parametrize("selection, extra", [
        ("0\n1\n2\n", ["--pairs", "a,zzz"]),
        (None, ["--pairs", "a,b"]),
        ("0\n1.5\n", ["--pairs", "a,b"]),
        ("", ["--pairs", "a,b"]),
        ("0 1\n2 3\n4 5\n", ["--pairs", "a,b"]),
        ("0\n1\n2\n", ["--pairs", "a,b", "--delimiter", ";;"]),
        ("0\n1\n2\n", ["--pairs", "a"]),
        ("0\n1\n2\n", ["--pairs", "a,a"]),
    ], ids=["unknown-column", "selection-missing", "selection-not-integers",
            "selection-empty", "selection-two-columns",
            "delimiter-two-chars", "pair-one-column", "pair-repeated"])
    @pytest.mark.filterwarnings("error")
    def test_bad_pair(self, csv_file, tmp_path, capsys, selection, extra):
        # also a missing, malformed or empty selection file and a bad
        # delimiter; a warning raised on the way fails the test
        sel = tmp_path / "s.txt"
        if selection is not None:
            sel.write_text(selection)
        rc = cli.main(["hull", "--input", str(csv_file),
                       "--response", "resp", "--selection", str(sel),
                       "--out", str(tmp_path / "o")] + extra)
        assert rc == cli.EXIT_INGEST
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestReplayCommand:
    @pytest.mark.parametrize("text", [
        None, "{not json", "[1, 2]", '{"command": "frobnicate"}',
        '{"command": "select"}',
        '{"command": "select", "argv": ["select", 3]}',
        '{"command": "select", "argv": ["replay", "manifest.json", "o"]}',
        '{"command": "select", "argv": ["select", "--k", "x"]}',
        '{"command": "simulate", "argv": ["simulate", "--config", "c.json",'
        ' "--out", "o"], "config": [1, 2]}',
    ], ids=["missing", "not-json", "not-object", "unknown-command",
            "no-argv", "argv-not-strings", "argv-replay",
            "argv-does-not-parse", "config-not-object"])
    def test_bad_manifest_is_config_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        rc = cli.main(["replay", str(manifest), str(tmp_path / "o")])
        assert rc == cli.EXIT_INGEST
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") for line in err)
        assert all(str(manifest) in line for line in err
                   if line.startswith("error:")), err

    @pytest.mark.parametrize("command", sorted(BASE_CONFIGS))
    def test_replay_writes_the_original_files(self, tmp_path, command):
        # the recorded config is passed on, not written to a file
        write_csv(tmp_path / "data.csv")
        rc, err = run_config(command, BASE_CONFIGS[command], tmp_path)
        assert rc == cli.EXIT_OK, err
        out = tmp_path / "o"
        (tmp_path / "cfg.json").unlink()   # the replay must not read it
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["replay", str(out / "manifest.json"),
                           str(tmp_path / "r")])
        assert rc == cli.EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == files
        assert files == sorted(["manifest.json", *json.loads(
            (out / "manifest.json").read_text())["outputs"]])
        for name in files:
            if name != "manifest.json":
                assert (tmp_path / "r" / name).read_bytes() \
                    == (out / name).read_bytes(), name


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command, blocked", [
    ("select", "indices.txt"), ("select", "report.json"),
    ("select", "manifest.json"), ("simulate", "report.json"),
    ("simulate", "report.csv"), ("simulate", "manifest.json"),
    ("hull", "hulls.json"), ("hull", "manifest.json")])
def test_unwritable_output_is_exit_3(csv_file, tmp_path, capsys, command,
                                     blocked):
    # a directory where an output file goes
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(n=200, p=2, k=16, K=4, repetitions=1,
                                      methods=["valg1"])))
    selection = tmp_path / "sel.txt"
    selection.write_text("0\n1\n2\n")
    data = ["--input", str(csv_file), "--response", "resp"]
    argv = {"select": ["select", *data, "--method", "oss", "--k", "10"],
            "simulate": ["simulate", "--config", str(config)],
            "hull": ["hull", *data, "--selection", str(selection),
                     "--pairs", "a,b"]}[command]
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INGEST
    assert err.startswith("error: ") and str(out / blocked) in err, err
    assert "Traceback" not in err


def test_no_module_imports_private_names():
    # a name with one leading underscore is its own module's business:
    # no module of the package imports one from another
    for path in sorted((ROOT / "src" / "subdopt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "subdopt"):
                private = [a.name for a in node.names
                           if re.match(r"_(?!_)", a.name)]
                assert not private, \
                    f"{path.name} imports {private} from {node.module}"
    # the pool and the selection unwrap are built in seeding, and the
    # other modules hand out the same functions
    assert exchange.candidate_pool is seeding.candidate_pool
    assert metrics.as_indices is seeding.as_indices


def test_startup_imports_no_scipy_linalg():
    # every command pays its imports; scipy.linalg's __init__ (and the
    # numpy.f2py it pulls in) was about half of that
    code = ("import subdopt, subdopt.cli, sys; print(sorted(m for m in "
            "('scipy.linalg', 'numpy.f2py') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out == "[]\n", out


@pytest.mark.parametrize("doc", ["README.md", "demos/README.md"])
def test_documented_commands_exist(doc):
    text = (ROOT / doc).read_text()
    commands = set(re.findall(r"(?:^|`)subdopt +([a-z]+)", text, re.M))
    assert commands
    for command in sorted(commands):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0, f"{doc}: subdopt {command}"


def test_demo_outputs_replay_to_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)   # the manifests record repo-relative paths
    for demo in ("select", "hull"):
        manifest = ROOT / "demos" / "output" / demo / "manifest.json"
        rc = cli.main(["replay", str(manifest), str(tmp_path / demo)])
        assert rc == 0
        for name, digest in json.loads(manifest.read_text())[
                "outputs"].items():
            data = (tmp_path / demo / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (demo, name)
