"""Delimited-text dataset ingestion with per-column transforms."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


class IngestError(Exception):
    """Parsing or column-resolution failure; message carries the location."""


@dataclass
class IngestSpec:
    path: str
    delimiter: str = ","
    header: bool = True
    response: str | int | None = None
    covariates: list | None = None     # names or indices; None = all others
    skip_rows: int = 0
    log_columns: list = field(default_factory=list)


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray | None
    columns: list[str]
    response_column: str | None
    n_rejected: int


def _resolve(col, names, what):
    if isinstance(col, int):
        if not 0 <= col < len(names):
            raise IngestError(f"{what} column index {col} out of range "
                              f"(file has {len(names)} columns)")
        return col
    try:
        return names.index(col)
    except ValueError:
        raise IngestError(f"{what} column {col!r} not found; "
                          f"available: {names}") from None


def _open(spec):
    """Check the delimiter and skip_rows; open the file as `csv` expects."""
    if len(spec.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got "
                          f"{spec.delimiter!r}")
    if spec.skip_rows < 0:
        raise IngestError(f"skip_rows must be >= 0, got {spec.skip_rows}")
    try:
        return open(spec.path, newline="")
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise IngestError(f"cannot open {spec.path}: {exc}") from exc


def _header(fh, spec):
    """Skip `skip_rows` rows and read the header: (csv reader, names)."""
    reader = csv.reader(fh, delimiter=spec.delimiter)
    for _ in range(spec.skip_rows):
        next(reader, None)
    if not spec.header:
        return reader, None
    names = next(reader, None)
    if names is None:
        raise IngestError(f"{spec.path}: no header row found")
    return reader, [h.strip() for h in names]


def _columns(spec, names):
    """Resolve the covariate, response and log-transform columns against
    `names`: (covariate indices, response index or None, log indices)."""
    resp_idx = None
    if spec.response is not None:
        resp_idx = _resolve(spec.response, names, "response")
    if spec.covariates is not None:
        cov_idx = [_resolve(c, names, "covariate") for c in spec.covariates]
        for i, j in enumerate(cov_idx):
            if j in cov_idx[:i]:
                raise IngestError(f"covariate column {names[j]!r} is "
                                  f"listed more than once")
    else:
        cov_idx = [j for j in range(len(names)) if j != resp_idx]
    if resp_idx is not None and resp_idx in cov_idx:
        raise IngestError("response column also listed as a covariate")
    log_idx = {_resolve(c, names, "log-transform") for c in spec.log_columns}
    return cov_idx, resp_idx, log_idx


def _used(columns):
    """The columns a parse reads: the covariates, then the response."""
    cov_idx, resp_idx, _ = columns
    return cov_idx + ([resp_idx] if resp_idx is not None else [])


def _dataset(names, columns, data, n_rejected):
    """The shared tail of both parsers: split `data` (the `_used` columns)
    into covariates and response and apply the log-transforms."""
    cov_idx, resp_idx, log_idx = columns
    for jj, j in enumerate(_used(columns)):
        if j in log_idx:
            if np.any(data[:, jj] <= 0):
                raise IngestError(
                    f"log-transform of column {names[j]!r} hit a "
                    f"non-positive value")
            data[:, jj] = np.log(data[:, jj])
    x = data[:, :len(cov_idx)]
    y = data[:, -1] if resp_idx is not None else None
    return Dataset(x, y, [names[j] for j in cov_idx],
                   names[resp_idx] if resp_idx is not None else None,
                   n_rejected)


def _ends_quoted(line, delimiter):
    """Whether `csv`, reading `line` from a row's start, ends it inside a
    quoted field, which then holds the line ending."""
    row = next(csv.reader([line], delimiter=delimiter))
    return bool(row) and row[-1].endswith(("\r", "\n"))


def _skip(cell):
    """The `np.loadtxt` converter of a column the spec leaves unused."""
    return 0.0


def ingest(spec):
    """Read a delimited file into covariates and an optional response.

    The header and `skip_rows` go through `csv.reader`; one `np.loadtxt`
    call then parses the numeric block from the open file, splitting
    quoted fields as `csv` does (a quoted `"4"` reads as 4) and skipping
    the header columns the spec leaves unused (a text id, say).
    Whitespace-only lines are dropped and counted as rejected.  The
    row-by-row parser `_ingest_rows` reads the file instead if a line is
    longer than `csv.field_size_limit()` or holds an odd number of quotes,
    or if the parse fails, finds no rows, reads a non-finite value or a
    field count other than the header's.  It also does if a blank line
    appears and a quoted field may run past its line, so that `csv` could
    read the blank line into the field: a row spans two lines, or the last
    line ends inside quotes.  Where both succeed they give the same
    arrays; the row parser also reads cells only `float()` reads (`1_0`,
    non-ASCII digits), and otherwise raises the error naming the offending
    line and column.  A column that does not resolve is reported once the
    whole block has parsed, so a bad row is still reported first.
    """
    blank = lines = 0
    last = ""
    limit = csv.field_size_limit()

    def data_lines(fh):
        nonlocal blank, lines, last
        for line in fh:
            if not line.strip():
                blank += 1
            elif len(line) > limit or ('"' in line and line.count('"') % 2):
                raise ValueError("csv decides this line")
            else:
                lines += 1
                last = line
                yield line

    column_error = None
    unused = {}
    with _open(spec) as fh:
        try:
            _, names = _header(fh, spec)
            if names is not None:
                try:
                    columns = _columns(spec, names)
                except IngestError as exc:
                    column_error = exc   # raised once the rows parse
                else:
                    used = _used(columns)
                    unused = {j: _skip for j in range(len(names))
                              if j not in used}
            with warnings.catch_warnings():
                # a file without data rows warns; the fallback reports it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(data_lines(fh), converters=unused,
                                  quotechar='"', delimiter=spec.delimiter,
                                  comments=None, ndmin=2, dtype=float)
            if blank and (len(data) != lines
                          or _ends_quoted(last, spec.delimiter)):
                data = None   # csv may read a blank line into a field
        except (ValueError, TypeError, csv.Error, IngestError):
            data = None   # TypeError: a newline or quote delimiter
    if data is None or not data.size or not np.isfinite(data).all():
        return _ingest_rows(spec)
    if names is None:
        names = [f"c{j}" for j in range(data.shape[1])]
        columns = _columns(spec, names)
    if len(names) != data.shape[1]:
        return _ingest_rows(spec)   # it names the mismatch
    if column_error is not None:
        raise column_error
    return _dataset(names, columns, data[:, _used(columns)], blank)


def _ingest_rows(spec):
    """Row-by-row parser: `csv.reader` rows, `float()` on each used cell.

    Blank lines are rejected (and counted); a wrong field count or a
    non-numeric or non-finite cell is a hard error naming the offending
    location.
    """
    rows = []
    rejected = 0
    with _open(spec) as fh:
        try:
            reader, header_names = _header(fh, spec)
            width = None
            for line_no, row in enumerate(reader,
                                          start=reader.line_num + 1):
                if not row or all(not c.strip() for c in row):
                    rejected += 1
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise IngestError(
                        f"{spec.path}:{line_no}: expected {width} fields, "
                        f"got {len(row)}")
                rows.append((line_no, row))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise IngestError(f"{spec.path}: {exc}") from None
    if not rows:
        raise IngestError(f"{spec.path}: all rows rejected or file empty")

    names = header_names if header_names is not None \
        else [f"c{j}" for j in range(width)]
    if len(names) != width:
        raise IngestError(f"{spec.path}: header has {len(names)} names "
                          f"but rows have {width} fields")
    columns = _columns(spec, names)
    used = _used(columns)
    data = np.empty((len(rows), len(used)))
    for i, (line_no, row) in enumerate(rows):
        for jj, j in enumerate(used):
            cell = row[j].strip()
            try:
                data[i, jj] = float(cell)
            except ValueError:
                raise IngestError(
                    f"{spec.path}:{line_no}: non-numeric value "
                    f"{cell!r} in column {names[j]!r}") from None
    bad = ~np.isfinite(data)
    if bad.any():
        i, jj = np.argwhere(bad)[0]
        line_no, row = rows[i]
        raise IngestError(
            f"{spec.path}:{line_no}: non-finite value "
            f"{row[used[jj]].strip()!r} in column {names[used[jj]]!r}")
    return _dataset(names, columns, data, rejected)
