"""Atomic artifact writes."""

from __future__ import annotations

import os

from noisegate.ioutil import atomic_write_text


def test_atomic_write_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write_text(tmp_path / "a.json", "{}\n")
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "a.json").read_text() == "{}\n"
    assert list(tmp_path.glob("*.tmp")) == []
