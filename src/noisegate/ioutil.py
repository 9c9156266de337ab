"""Small file helpers shared by checkpointing and pipeline artifacts."""

from __future__ import annotations

import csv
import json
import os
import secrets
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see partial files.

    The file gets the permissions a plain open() would give it (0o666
    less the umask), not the owner-only mode of tempfile.mkstemp.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_floats(values: np.ndarray) -> np.ndarray:
    """repr(float(x)) of every value, as an object array of the same shape.

    repr runs once per distinct bit pattern, so -0.0 and 0.0 stay apart.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, at = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[at].reshape(values.shape)


def atomic_write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV of the header and the rows of the column-stacked columns,
    atomically, in the bytes csv.writer would give: fields joined by ','
    and '\r\n' after every line.  Cells are ints or strings that need no
    quoting (no ',', '"' or line break); format floats with format_floats.
    """
    cells = np.column_stack(columns)
    line = ",".join(["%s"] * len(header)) + "\r\n"
    body = (line * len(cells)) % tuple(cells.ravel().tolist())
    atomic_write_text(path, ",".join(header) + "\r\n" + body)


def read_csv_rows(path: str | Path, header: Sequence[str]) -> list[list[str]]:
    """The rows under the header of a CSV, through csv.reader.  ValueError
    unless the first row is exactly the header and every row has one field
    per column."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != tuple(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        rows = list(reader)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: expected {len(header)} fields in every row")
    return rows


def read_columns(path: str | Path, header: Sequence[str], dtype: np.dtype) -> np.ndarray | None:
    """The rows of a CSV under the given header as one structured array, or
    None where the file is not plain.

    Plain means: the first line is exactly the header, no field holds a
    quote, no line is blank, and every field parses as its dtype field.
    numpy's parser accepts a subset of what int() and float() accept, gives
    the same values and rejects a '\r' that does not end a line, so on a
    plain file the caller's row-by-row parser would read the same rows; on
    any other file the caller runs that parser, which reads the file or
    raises its own error.
    """
    try:
        with Path(path).open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    head, _, body = text.partition("\n")
    if head.removesuffix("\r") != ",".join(header) or '"' in body:
        return None
    if not body:
        return np.empty(0, dtype)
    try:
        # numpy warns of a body of blank lines, and older numpy of an int
        # read through float; neither file is plain.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                body.split("\n"), dtype=dtype, delimiter=",", comments=None, quotechar=None,
                ndmin=1,
            )
    except (ValueError, Warning):
        return None
    # numpy skips blank lines, which the row parsers do not all accept.
    return rows if len(rows) == body.count("\n") + (not body.endswith("\n")) else None


def dump_json(obj: object, path: str | Path) -> None:
    """Canonical JSON dump: sorted keys, 2-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> object:
    with Path(path).open() as fh:
        return json.load(fh)
