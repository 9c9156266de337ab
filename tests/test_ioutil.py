"""Atomic artifact writes and the memory of artifact reads."""

from __future__ import annotations

import csv
import io
import os
import tracemalloc

import numpy as np
import pytest

from noisegate import ioutil
from noisegate.ensemble.features import read_features, write_features
from noisegate.ioutil import atomic_write_columns, atomic_write_text


def test_atomic_write_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write_text(tmp_path / "a.json", "{}\n")
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "a.json").read_text() == "{}\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("cells", [1, 5, 21, 64])
def test_columns_written_in_chunks_match_csv_writer(tmp_path, monkeypatch, cells):
    # 37 rows of 4 cells: one row per chunk, then chunks of 5 and 16 rows
    # with a ragged last one.
    rng = np.random.default_rng(3)
    users = rng.integers(1, 50, 37)
    values = rng.normal(size=(37, 2))
    labels = np.array(["clean", "noisy"], dtype=object)[rng.integers(0, 2, 37)]
    header = ("userId", "a", "b", "label")
    monkeypatch.setattr(ioutil, "_WRITE_CELLS", cells)
    atomic_write_columns(tmp_path / "c.csv", header, (users, values, labels))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows(zip(users.tolist(), values[:, 0], values[:, 1], labels))
    assert (tmp_path / "c.csv").read_bytes() == want.getvalue().encode()


def test_columns_of_unequal_lengths_write_nothing(tmp_path):
    with pytest.raises(ValueError, match="unequal lengths"):
        atomic_write_columns(tmp_path / "c.csv", ("a", "b"), (np.arange(3), np.arange(2)))
    assert list(tmp_path.iterdir()) == []


def test_column_write_memory_stays_within_a_few_chunks(tmp_path):
    # A features.csv-shaped write, 10,000 rows of 21 cells with every float
    # distinct, formats one chunk of at most 2^15 cells at a time: 3.7 MB
    # traced, against 13.8 MB for one row tuple and one body string of the
    # whole file.
    rng = np.random.default_rng(4)
    columns = (
        rng.integers(1, 700, 10_000), rng.integers(1, 560, 10_000),
        rng.normal(size=(10_000, 19)),
    )
    header = [f"c{k}" for k in range(21)]
    tracemalloc.start()
    try:
        atomic_write_columns(tmp_path / "f.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_feature_read_memory_stays_near_its_columns(tmp_path):
    # A features.csv of 10,000 rows of 21 cells with every float distinct
    # (3.8 MB of text) goes from the open file to np.loadtxt: the
    # structured array and the three contiguous columns cut from it, 3.4 MB
    # traced, against 14.0 MB for the whole text and one string per line.
    rng = np.random.default_rng(5)
    users, items = rng.integers(1, 700, 10_000), rng.integers(1, 560, 10_000)
    X = rng.normal(size=(10_000, 19))
    path = tmp_path / "features.csv"
    write_features(path, users, items, X)
    tracemalloc.start()
    try:
        got = read_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (users, items, X)]
    assert peak < 5 * 2**20
