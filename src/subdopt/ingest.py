"""Delimited-text dataset ingestion with per-column transforms."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import os
import shutil
import signal
import tempfile
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
    chunks: int       # byte ranges parsed; 0 when the row parser read
    #: sha256 of the bytes parsed: the file, or the copy of a pipe
    checksum: str | None = None


def resolve_column(col, names, what):
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


def _open(spec, path=None):
    """Check the delimiter and skip_rows; open the file as `csv` expects:
    `path`, or else spec.path."""
    if len(spec.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got "
                          f"{spec.delimiter!r}")
    if spec.skip_rows < 0:
        raise IngestError(f"skip_rows must be >= 0, got {spec.skip_rows}")
    try:
        return open(path or spec.path, newline="")
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise IngestError(f"cannot open {spec.path}: {exc}") from exc


def _header(lines, spec):
    """Skip `skip_rows` rows of the text `lines`, or up to its end, and
    read the header: (csv reader, names)."""
    reader = csv.reader(lines, delimiter=spec.delimiter)
    for _ in zip(range(spec.skip_rows), reader):   # stops at the end
        pass
    if not spec.header:
        return reader, None
    names = next(reader, None)
    if names is None:
        raise IngestError(f"{spec.path}: no header row found")
    return reader, [h.strip() for h in names]


def _columns(spec, names):
    """Resolve the covariate, response and log-transform columns against
    `names`: (covariate indices, response index or None, log indices,
    the columns a parse reads: the covariates, then the response)."""
    resp_idx = None
    if spec.response is not None:
        resp_idx = resolve_column(spec.response, names, "response")
    if spec.covariates is not None:
        cov_idx = [resolve_column(c, names, "covariate")
                   for c in spec.covariates]
        for i, j in enumerate(cov_idx):
            if j in cov_idx[:i]:
                raise IngestError(f"covariate column {names[j]!r} is "
                                  f"listed more than once")
    else:
        cov_idx = [j for j in range(len(names)) if j != resp_idx]
    if not cov_idx:
        raise IngestError(f"no covariate column; available: {names}")
    if resp_idx is not None and resp_idx in cov_idx:
        raise IngestError("response column also listed as a covariate")
    log_idx = {resolve_column(c, names, "log-transform")
               for c in spec.log_columns}
    return (cov_idx, resp_idx, log_idx,
            cov_idx + ([resp_idx] if resp_idx is not None else []))


def _dataset(names, columns, data, n_rejected, chunks):
    """The shared tail of both parsers: split `data` (the columns a parse
    reads) into covariates and response and apply the log-transforms."""
    cov_idx, resp_idx, log_idx, used = columns
    for jj, j in enumerate(used):
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
                   n_rejected, chunks)


def _ends_quoted(line, delimiter):
    """Whether `csv`, reading `line` from a row's start, ends it inside a
    quoted field, which then holds the line ending."""
    row = next(csv.reader([line], delimiter=delimiter))
    return bool(row) and row[-1].endswith(("\r", "\n"))


def _skip(cell):
    """The `np.loadtxt` converter of a column the spec leaves unused."""
    return 0.0


#: Fewest bytes of the numeric block per range that `ingest` parses
CHUNK = 1 << 20


def sha256(path):
    """The hex sha256 of the file at `path`, read into one 64 KiB buffer.
    `ingest` hashes while its arrays are alive: a 1 MiB buffer, once
    freed, stayed in the heap and added 0.8 MB to `select`'s peak RSS."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while got := fh.readinto(buf):
            digest.update(buf[:got])
    return digest.hexdigest()


def _ranges(fh, first):
    """Cut the bytes of the open file from offset `first` to its end into
    W ranges, each but the last ending just after a newline: a list of
    (first, stop) offsets.  W is the number of usable CPUs (1 where
    `os.sched_getaffinity` is missing), but at most one range per CHUNK
    bytes."""
    end = os.fstat(fh.fileno()).st_size
    if not first <= end:
        # the position of a stateful decoder is no byte offset
        raise ValueError("no byte offset for the numeric block")
    count = min(len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else 1,
                (end - first) // CHUNK)
    cuts = [first]
    if count > 1:
        import mmap
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            for i in range(1, count):
                nl = mm.find(b"\n", max(first + (end - first) * i // count,
                                         cuts[-1]), end)
                if nl < 0 or nl + 1 == end:
                    break
                cuts.append(nl + 1)
    return list(zip(cuts, cuts[1:] + [end]))


def _parse_range(path, encoding, delimiter, converters, first, stop):
    """Parse the lines in bytes [first, stop) of the file with one
    `np.loadtxt` call: (array, head), the head being the array's shape
    and the number of blank lines.  Lines end only at LF, and each is
    decoded strictly.  ValueError, which sends the file to the row
    parser, if `csv` could read the range differently: a byte the
    encoding rejects, a line longer than `csv.field_size_limit()` or with
    an odd number of quotes, fewer rows than data lines (a quoted field
    across lines), or a last line that ends inside a quoted field; and
    if a value is non-finite."""
    blank = lines = 0
    last = ""
    limit = csv.field_size_limit()

    def data_lines(raw):
        nonlocal blank, lines, last
        left = stop - first
        for line in raw:
            if left <= 0:
                return
            left -= len(line)
            line = line.decode(encoding)
            if not line.strip():
                blank += 1
            elif len(line) > limit or ('"' in line and line.count('"') % 2):
                raise ValueError("csv decides this line")
            else:
                lines += 1
                last = line
                yield line

    with open(path, "rb") as raw, warnings.catch_warnings():
        raw.seek(first)
        # a range without data rows warns
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(data_lines(raw), converters=converters,
                          quotechar='"', delimiter=delimiter,
                          comments=None, ndmin=2, dtype=float)
    # min and max carry a NaN and reach an inf
    if data.size and not np.isfinite((data.min(), data.max())).all():
        raise ValueError("a non-finite value")
    if len(data) != lines or lines and _ends_quoted(last, delimiter):
        raise ValueError("csv may read a line into a field")
    return data, (*data.shape, blank)


def _fork(parse, first, stop):
    """Run `parse(first, stop)` in a child process, which sends the head,
    then the array column by column, down a pipe and leaves through
    `os._exit`, so it never flushes the parent's stdio; it exits 1 if
    anything fails.  Returns (pid, buffered reader of the pipe)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        os.close(r)
        data, head = parse(first, stop)
        with open(w, "wb") as out:
            out.write(np.array(head, dtype=np.int64))
            for column in data.T:
                out.write(np.ascontiguousarray(column))
        code = 0
    finally:
        os._exit(code)


def ingest(spec):
    """Read a delimited file into covariates and an optional response.

    The header and `skip_rows` go through `csv.reader`.  The numeric
    block after them is cut into W byte ranges (`_ranges`): W is the
    number of usable CPUs, from `os.sched_getaffinity`, but at most one
    range per CHUNK bytes, so a small file, or a platform without
    `os.sched_getaffinity`, is one range.  The first range is parsed in
    this process and each other one in a forked child process, which
    sends its array's columns back over a pipe and is reaped before this
    returns; the children's memory is therefore not in this process's
    peak RSS.  Every range is parsed by one `np.loadtxt` call, which
    splits quoted fields as `csv` does (a quoted `"4"` reads as 4) and
    skips the header columns the spec leaves unused (a text id, say),
    and is checked for a non-finite value; the used columns are read
    straight into one array.  Whitespace-only lines are dropped and
    counted as rejected.

    The row-by-row parser `_ingest_rows` reads the file instead if a
    range could be read differently by `csv` (`_parse_range` names the
    cases), fails to parse or holds a non-finite value, if no range
    finds a row, or if ranges, or a range and the header, differ in
    field count.  A range splits lines only at LF, so a file whose lines
    end in a bare CR goes to the row parser too: `np.loadtxt` rejects an
    unquoted CR inside a line, while a quoted one stays in its field.
    Where both succeed they give the same arrays; the row parser also
    reads cells only `float()` reads (`1_0`, non-ASCII digits), and
    otherwise raises the error naming the offending line and column.  A
    column that does not resolve is reported once the whole block has
    parsed, so a bad row is still reported first.  `Dataset.chunks` is
    W, or 0 when the row parser read the file.

    An input that cannot seek (a pipe, or a `<(...)` process
    substitution) is read once: it is copied to a temporary file, read
    from that copy as above, and the copy is removed before this
    returns.  Errors still name spec.path.

    `Dataset.checksum` is the sha256 of the bytes parsed, the file's or
    the copy's, taken once the parse has succeeded.
    """
    with _open(spec) as fh:
        if fh.seekable():
            return _ingest(spec, fh)
        # closing the copy removes it, on an error too
        with tempfile.NamedTemporaryFile(suffix=".csv") as copy:
            try:
                shutil.copyfileobj(fh.buffer, copy, CHUNK)
                copy.flush()
            except OSError as exc:   # a full disk, say
                raise IngestError(f"cannot copy {spec.path}: {exc}") \
                    from exc
            with _open(spec, copy.name) as text:
                return _ingest(spec, text)


def _ingest(spec, fh):
    """`ingest` of the open file fh, which can seek."""
    unused = {}
    children = []
    try:
        _, names = _header(iter(fh.readline, ""), spec)
        if names is not None:
            # a column that does not resolve is raised once the rows parse
            with contextlib.suppress(IngestError):
                used = _columns(spec, names)[3]
                unused = {j: _skip for j in range(len(names))
                          if j not in used}
        ranges = _ranges(fh, fh.tell())
        parse = functools.partial(_parse_range, fh.name, fh.encoding,
                                  spec.delimiter, unused)
        for first, stop in ranges[1:]:
            children.append(_fork(parse, first, stop))
        own, head = parse(*ranges[0])
        heads = [head]
        for _, pipe in children:
            got = np.empty(3, dtype=np.int64)
            if pipe.readinto(got) < got.nbytes:
                raise ValueError("a range did not parse")
            heads.append(tuple(got.tolist()))
        widths = {width for rows, width, _ in heads if rows}
        if len(widths) != 1:
            raise ValueError("no rows, or ranges of different widths")
        width, = widths
        if names is None:
            names = [f"c{j}" for j in range(width)]
        if len(names) != width:
            raise ValueError("the row parser names the mismatch")
        columns = _columns(spec, names)
        used = columns[3]
        # column-major, as `data[:, used]` was: each column is
        # contiguous for the column passes of scaling and seeding
        data = np.empty((sum(h[0] for h in heads), len(used)), order="F")
        at = len(own)
        own = own.reshape(at, width)   # (0, 1) when range 0 has no rows
        for jj, j in enumerate(used):
            data[:at, jj] = own[:, j]
        # data's pages become resident as it fills: own goes before
        # the children's rows arrive
        del own
        for (_, pipe), (rows, *_) in zip(children, heads[1:]):
            spare = np.empty(rows)   # for the unused columns
            for j in range(width):
                column = data[at:at + rows, used.index(j)] if j in used \
                    else spare
                if pipe.readinto(column) < column.nbytes:
                    raise ValueError("a range's array ended early")
            at += rows
    except (ValueError, TypeError, csv.Error, OSError):
        data = None   # TypeError: a newline or quote delimiter
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if data is None:
        ds = _ingest_rows(spec, fh.name)
    else:
        ds = _dataset(names, columns, data, sum(h[2] for h in heads),
                      len(heads))
    ds.checksum = sha256(fh.name)
    return ds


def _ingest_rows(spec, path=None):
    """Row-by-row parser: `csv.reader` rows, `float()` on each used cell,
    of `path`, or else spec.path.

    Blank lines are rejected (and counted); a wrong field count or a
    non-numeric or non-finite cell is a hard error naming the offending
    location in spec.path.
    """
    rows = []
    rejected = 0
    with _open(spec, path) as fh:
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
    used = columns[3]
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
    return _dataset(names, columns, data, rejected, 0)
