"""Small file helpers shared by checkpointing and pipeline artifacts."""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import Iterable, Sequence


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


def atomic_write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows with csv.writer, atomically: rows are
    rendered in memory first, so an error while producing them leaves
    any existing file untouched."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def dump_json(obj: object, path: str | Path) -> None:
    """Canonical JSON dump: sorted keys, 2-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> object:
    with Path(path).open() as fh:
        return json.load(fh)
