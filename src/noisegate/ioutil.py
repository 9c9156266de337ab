"""Small file helpers shared by checkpointing and pipeline artifacts."""

from __future__ import annotations

import json
import os
import re
import secrets
import warnings
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see partial files.

    The file gets the permissions a plain open() would give it (0o666
    less the umask), not the owner-only mode of tempfile.mkstemp.
    """
    _atomic_write_chunks(path, (text,))


def _atomic_write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """atomic_write_text of the concatenated chunks, each written as it is made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
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


# Cells per chunk of atomic_write_columns: bounds the float strings, the
# row tuple and the text that one chunk of rows holds.
_WRITE_CELLS = 1 << 15


def atomic_write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV of the header and the rows of the column-stacked columns,
    atomically, in the bytes csv.writer would give: fields joined by ','
    and '\r\n' after every line.  Cells are ints, floats (written as
    format_floats writes them) or strings that need no quoting (no ',', '"'
    or line break).

    Rows are formatted, stacked and written in chunks of at most
    _WRITE_CELLS cells through one temp file, so neither the text nor the
    float strings of the whole file are held at once.  np.column_stack
    promotes by dtype alone, so a chunk's cells format as the whole
    stack's would.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    line = ",".join(["%s"] * len(header)) + "\r\n"
    step = max(1, _WRITE_CELLS // len(header))

    def rows(lo: int) -> str:
        parts = [np.asarray(column[lo : lo + step]) for column in columns]
        cells = np.column_stack([format_floats(p) if p.dtype.kind == "f" else p for p in parts])
        return (line * len(cells)) % tuple(cells.ravel().tolist())

    header_line = ",".join(header) + "\r\n"
    _atomic_write_chunks(path, chain([header_line], map(rows, range(0, n, step))))


def _loadtxt(lines, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


class _HeaderError(ValueError):
    """A CSV whose first line is not the expected header."""


def parse_columns(path: str | Path, header: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """The rows of a CSV under the given header as one structured array.

    The first line must be exactly the header.  The lines after it go from
    the open file to one np.loadtxt call, which skips blank lines and
    parses every field as its dtype field: no quoting and no comments, so
    a '"' is an ordinary character, and a number cell with a quote, a '_'
    separator or a non-ASCII digit fails.  A header-only file gives an
    empty array.  A wrong header raises ValueError naming the path; a bad
    row, numpy's ValueError, which names no line (read_columns finds it).
    """
    with Path(path).open(newline="", errors="replace") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(header):
            raise _HeaderError(f"{path}: expected header {','.join(header)}")
        return _loadtxt(fh, dtype)


def read_columns(path: str | Path, header: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """parse_columns, whose ValueError for a bad row names the path and its
    line (as row_error does) with numpy's message for that row alone."""
    try:
        return parse_columns(path, header, dtype)
    except _HeaderError:
        raise
    except ValueError as exc:
        failure = exc
    # np.loadtxt checks each row on its own, so a run of rows fails iff one
    # of them does: halving the failing run finds the first bad row.
    rows = _data_lines(path)
    while len(rows) > 1:
        half = len(rows) // 2
        rows = rows[:half] if _parse_error(rows[:half], dtype) else rows[half:]
    message = _parse_error(rows, dtype)
    raise ValueError(f"{path}:{rows[0][0]}: {message}" if message else f"{path}: {failure}")


def _parse_error(rows: list[tuple[int, str]], dtype: np.dtype) -> str | None:
    """numpy's message for the (line number, text) rows, less its row count, or None."""
    try:
        _loadtxt([line for _, line in rows], dtype)
    except ValueError as exc:
        return re.sub(r" at row [0-9]+(?=[^']*$)", "", str(exc))
    return None


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line under the header, which is line 1."""
    with Path(path).open(newline="", errors="replace") as fh:
        return [(n, line) for n, line in enumerate(fh, start=1) if n > 1 and line.rstrip("\r\n")]


def row_error(path: str | Path, row: int, message: str) -> ValueError:
    """ValueError naming path and the line of the row-th row (from 0) under the header."""
    return ValueError(f"{path}:{_data_lines(path)[row][0]}: {message}")


def dump_json(obj: object, path: str | Path) -> None:
    """Canonical JSON dump: sorted keys, 2-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> object:
    with Path(path).open() as fh:
        return json.load(fh)
