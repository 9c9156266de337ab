"""Tables, loaders, activity filtering, and the per-user split."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.dataset import (
    GenreMap,
    RatingsTable,
    Scale,
    SplitSpec,
    filter_min_activity,
    load_genres,
    load_ratings,
    split_train_test,
)

from .conftest import make_genres, make_table


def test_scale_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Scale(5.0, 0.5)


def test_scale_span_and_grid():
    s = Scale(0.5, 5.0)
    assert s.span == 4.5
    grid = s.grid(0.5)
    assert grid[0] == 0.5 and grid[-1] == 5.0 and len(grid) == 10


def test_table_sorts_rows_and_exposes_keys():
    t = make_table([(2, 7, 3.0, 10), (1, 9, 4.0, 11), (1, 3, 2.0, 12)])
    assert t.rows() == [(1, 3, 2.0, 12), (1, 9, 4.0, 11), (2, 7, 3.0, 10)]
    assert t.user_ids() == [1, 2]
    assert t.has(1, 9) and not t.has(9, 1)
    assert t.value_of(2, 7) == 3.0


def test_table_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate"):
        make_table([(1, 3, 2.0, 1), (1, 3, 4.0, 2)])


def test_table_rejects_out_of_scale_value():
    with pytest.raises(ValueError, match="outside scale"):
        make_table([(1, 10, 7.0, 100)])


def test_user_and_item_stats_population_std():
    t = make_table([(1, 1, 1.0, 0), (1, 2, 3.0, 0), (2, 1, 5.0, 0)])
    mean, std, count = t.user_stats()[1]
    assert mean == 2.0 and count == 2
    assert std == pytest.approx(1.0)  # population, not sample
    imean, istd, icount = t.item_stats()[1]
    assert imean == 3.0 and icount == 2 and istd == pytest.approx(2.0)


def test_without_keys_and_without_users():
    t = make_table([(1, 1, 1.0, 0), (1, 2, 2.0, 0), (2, 1, 3.0, 0)])
    assert len(t.without_keys(np.array([1]), np.array([2]))) == 2
    assert len(t.without_users({1})) == 1
    assert t.without_users({1}).rows() == [(2, 1, 3.0, 0)]


@settings(max_examples=60, deadline=None)
@given(
    cells=st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=20),
    dropped=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
)
def test_without_keys_matches_set_filter(cells, dropped):
    """Absent and repeated keys included: the rows left are those whose key is not dropped."""
    t = make_table([(u, i, 3.0, 0) for u, i in sorted(cells)])
    users = np.array([u for u, _ in dropped], dtype=np.int64)
    items = np.array([i for _, i in dropped], dtype=np.int64)
    assert t.without_keys(users, items).keys() == [k for k in t.keys() if k not in set(dropped)]


def test_merged_tables_preserve_rows():
    a = make_table([(1, 1, 1.0, 0)])
    b = make_table([(2, 2, 2.0, 0)])
    m = a.merged(b)
    assert len(m) == 2 and m.has(1, 1) and m.has(2, 2)


def test_load_ratings_deduplicates_keeping_latest(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text(
        "userId,movieId,rating,timestamp\n"
        "1,10,2.0,100\n"
        "1,11,3.0,100\n"
        "1,10,4.5,200\n"
        "2,10,5.0,100\n"
    )
    t = load_ratings(p)
    assert len(t) == 3
    assert t.value_of(1, 10) == 4.5  # latest timestamp wins
    assert t.dropped_duplicates == 1


def test_load_ratings_empty_file_is_empty_table(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("userId,movieId,rating,timestamp\n")
    t = load_ratings(p)
    assert len(t) == 0


def test_load_ratings_out_of_scale_raises(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("userId,movieId,rating,timestamp\n1,10,7.0,100\n")
    with pytest.raises(ValueError):
        load_ratings(p, Scale(0.5, 5.0))


def test_csv_roundtrip(tmp_path):
    t = make_table([(1, 1, 0.5, 7), (1, 2, 4.5, 8), (3, 9, 3.0, 9)])
    p = tmp_path / "t.csv"
    t.to_csv(p)
    back = load_ratings(p)
    assert back.rows() == t.rows()


def test_load_genres_indicator_vectors(tmp_path):
    p = tmp_path / "movies.csv"
    p.write_text(
        "movieId,title,genres\n"
        "1,Alpha (2001),Adventure|Comedy\n"
        "2,Beta (2002),Drama\n"
        "3,Gamma (2003),(no genres listed)\n"
    )
    g = load_genres(p)
    assert set(g.vocabulary) == {"Adventure", "Comedy", "Drama"}
    v1 = g.vector(1)
    assert v1.sum() == 2.0
    assert g.genres_of(1) == ("Adventure", "Comedy")
    # absent item -> zero vector, flagged absent via containment
    assert 99 not in g
    assert g.vector(99).sum() == 0.0
    assert g.vector(3).sum() == 0.0


def test_identical_genres_have_cosine_one(tmp_path):
    g = make_genres({1: ("A", "B"), 2: ("A", "B")}, ("A", "B", "C"))
    a, b = g.vector(1), g.vector(2)
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cos == pytest.approx(1.0)


def test_filter_min_activity_thresholds():
    rows = []
    for u, n in ((1, 60), (2, 10), (3, 50)):
        rows.extend((u, i, 3.0, 0) for i in range(n))
    t = make_table(rows)
    kept = filter_min_activity(t, min_count=50, by="user")
    assert kept.user_ids() == [1, 3]
    assert len(filter_min_activity(t, min_count=0, by="user")) == len(t)


def test_filter_min_activity_removes_user_with_49():
    rows = [(1, i, 3.0, 0) for i in range(49)] + [(2, i, 3.0, 0) for i in range(50)]
    t = make_table(rows)
    assert filter_min_activity(t, min_count=50).user_ids() == [2]


def test_split_fraction_arithmetic():
    t = make_table([(1, i, 3.0, i) for i in range(10)])
    train, test = split_train_test(t, SplitSpec(0.8, 0))
    assert len(train) == 8 and len(test) == 2


def test_split_100_ratings_80_20():
    t = make_table([(1, i, 3.0, i) for i in range(100)])
    train, test = split_train_test(t, SplitSpec(0.8, 1))
    assert len(train) == 80 and len(test) == 20


def test_split_partitions_every_user():
    rows = [(u, i, 3.0, i) for u in (1, 2, 3) for i in range(7)]
    t = make_table(rows)
    train, test = split_train_test(t, SplitSpec(0.7, 42))
    keys = set((r[0], r[1]) for r in t.rows())
    tr = set((r[0], r[1]) for r in train.rows())
    te = set((r[0], r[1]) for r in test.rows())
    assert tr | te == keys and not (tr & te)
    for u in (1, 2, 3):
        assert len(train.user_rows(u)) == math.ceil(0.7 * 7)


def test_split_same_seed_identical():
    t = make_table([(u, i, 3.0, i) for u in (1, 2) for i in range(9)])
    a = split_train_test(t, SplitSpec(0.8, 5))
    b = split_train_test(t, SplitSpec(0.8, 5))
    assert a[0].rows() == b[0].rows() and a[1].rows() == b[1].rows()


def test_split_single_rating_user_goes_to_train(caplog):
    t = make_table([(1, 1, 3.0, 0), (2, 1, 3.0, 0), (2, 2, 3.0, 0), (2, 3, 4.0, 0)])
    with caplog.at_level("WARNING"):
        train, test = split_train_test(t, SplitSpec(0.5, 0))
    assert train.has(1, 1) and not test.has(1, 1)
    assert any("single rating" in r.message for r in caplog.records)


@settings(max_examples=30, deadline=None)
@given(
    n_users=st.integers(2, 6),
    n_items=st.integers(2, 12),
    frac=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**31),
)
def test_split_partition_property(n_users, n_items, frac, seed):
    rows = [(u, i, 3.0, i) for u in range(1, n_users + 1) for i in range(1, n_items + 1)]
    t = make_table(rows)
    train, test = split_train_test(t, SplitSpec(frac, seed))
    assert len(train) + len(test) == len(t)
    tr = set((r[0], r[1]) for r in train.rows())
    te = set((r[0], r[1]) for r in test.rows())
    assert not (tr & te)
    for u in range(1, n_users + 1):
        assert len(train.user_rows(u)) == math.ceil(frac * n_items)
