"""Delimited-text dataset ingestion with per-column transforms."""

from __future__ import annotations

import csv
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


def ingest(spec):
    """Read a delimited file into covariates and an optional response.

    Blank lines are rejected (and counted); a wrong field count or a
    non-numeric or non-finite cell is a hard error naming the offending
    location.
    """
    rows = []
    rejected = 0
    if len(spec.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got "
                          f"{spec.delimiter!r}")
    try:
        fh = open(spec.path, newline="")
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise IngestError(f"cannot open {spec.path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        for _ in range(spec.skip_rows):
            next(reader, None)
        header_names = None
        if spec.header:
            header_names = next(reader, None)
            if header_names is None:
                raise IngestError(f"{spec.path}: no header row found")
            header_names = [h.strip() for h in header_names]
        width = None
        for line_no, row in enumerate(reader, start=reader.line_num + 1):
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
    if not rows:
        raise IngestError(f"{spec.path}: all rows rejected or file empty")
    width = len(rows[0][1])
    names = header_names if header_names is not None \
        else [f"c{j}" for j in range(width)]
    if len(names) != width:
        raise IngestError(f"{spec.path}: header has {len(names)} names "
                          f"but rows have {width} fields")

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
        cov_idx = [j for j in range(width) if j != resp_idx]
    if resp_idx is not None and resp_idx in cov_idx:
        raise IngestError("response column also listed as a covariate")
    log_idx = {_resolve(c, names, "log-transform") for c in spec.log_columns}

    used = cov_idx + ([resp_idx] if resp_idx is not None else [])
    data = np.empty((len(rows), len(used)))
    for i, (line_no, row) in enumerate(rows):
        for jj, j in enumerate(used):
            cell = row[j].strip()
            try:
                data[i, jj] = float(cell)
            except ValueError:
                raise IngestError(
                    f"{spec.path}:{line_no}: non-numeric value {cell!r} "
                    f"in column {names[j]!r}") from None
    bad = ~np.isfinite(data)
    if bad.any():
        i, jj = np.argwhere(bad)[0]
        line_no, row = rows[i]
        raise IngestError(
            f"{spec.path}:{line_no}: non-finite value "
            f"{row[used[jj]].strip()!r} in column {names[used[jj]]!r}")
    x = data[:, :len(cov_idx)]
    y = data[:, -1] if resp_idx is not None else None

    for jj, j in enumerate(cov_idx):
        if j in log_idx:
            if np.any(x[:, jj] <= 0):
                raise IngestError(
                    f"log-transform of column {names[j]!r} hit a "
                    f"non-positive value")
            x[:, jj] = np.log(x[:, jj])
    if resp_idx is not None and resp_idx in log_idx:
        if np.any(y <= 0):
            raise IngestError(
                f"log-transform of column {names[resp_idx]!r} hit a "
                f"non-positive value")
        y = np.log(y)

    return Dataset(x, y, [names[j] for j in cov_idx],
                   names[resp_idx] if resp_idx is not None else None,
                   rejected)
