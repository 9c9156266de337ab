"""Tables, loaders, activity filtering, and the per-user split."""

from __future__ import annotations

import math
import tracemalloc

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
    id_stats,
    load_genres,
    load_ratings,
    split_train_test,
)
from noisegate.synth import planted_tables

from .conftest import make_genres, make_table
from .oracles import _has, genres_of, keys, ratings, value_of


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
    assert ratings(t) == [(1, 3, 2.0, 12), (1, 9, 4.0, 11), (2, 7, 3.0, 10)]
    assert t.user_ids().tolist() == [1, 2]
    assert t.item_ids().tolist() == [3, 7, 9]
    assert t.contains(np.array([1, 9]), np.array([9, 1])).tolist() == [True, False]
    assert value_of(t, 2, 7) == 3.0


def test_table_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate"):
        make_table([(1, 3, 2.0, 1), (1, 3, 4.0, 2)])


def test_table_rejects_out_of_scale_value():
    with pytest.raises(ValueError, match="outside scale"):
        make_table([(1, 10, 7.0, 100)])


def test_user_and_item_stats_population_std():
    t = make_table([(1, 1, 1.0, 0), (1, 2, 3.0, 0), (2, 1, 5.0, 0)])
    users, mean, std, count = id_stats(t.users, t.values)
    assert users.tolist() == [1, 2] and mean[0] == 2.0 and count[0] == 2
    assert std[0] == pytest.approx(1.0)  # population, not sample
    items, imean, istd, icount = id_stats(t.items, t.values)
    assert items.tolist() == [1, 2]
    assert imean[0] == 3.0 and icount[0] == 2 and istd[0] == pytest.approx(2.0)


def test_without_keys():
    t = make_table([(1, 1, 1.0, 0), (1, 2, 2.0, 0), (2, 1, 3.0, 0)])
    left = t.without_keys(np.array([1]), np.array([2]))
    assert ratings(left) == [(1, 1, 1.0, 0), (2, 1, 3.0, 0)]


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
    assert keys(t.without_keys(users, items)) == [k for k in keys(t) if k not in set(dropped)]


def test_merged_tables_preserve_rows():
    a = make_table([(1, 1, 1.0, 0)])
    b = make_table([(2, 2, 2.0, 0)])
    m = a.merged(b)
    assert len(m) == 2 and _has(m, 1, 1) and _has(m, 2, 2)


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
    assert value_of(t, 1, 10) == 4.5  # latest timestamp wins
    assert t.dropped_duplicates == 1


def test_load_ratings_in_key_order_copies_each_column_once(tmp_path):
    # A split as the program writes it, in key order: 20,000 rows, 0.64 MB
    # of columns.  The structured array np.loadtxt fills and one contiguous
    # copy of each column make 1.28 MB traced, against 2.32 MB when every
    # column is also gathered through an identity index, twice.
    rng = np.random.default_rng(6)
    n = 20_000
    table = RatingsTable(
        np.repeat(np.arange(n // 50), 50), np.tile(np.arange(1, 351, 7), n // 50),
        rng.integers(1, 11, n) / 2.0, rng.integers(0, 2**31, n), Scale(0.5, 5.0),
    )
    path = tmp_path / "split.csv"
    table.to_csv(path)
    tracemalloc.start()
    try:
        got = load_ratings(path, table.scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratings(got) == ratings(table)
    assert peak < 2.5 * 32 * n
    # the constructor keeps columns of the column dtypes already in key order
    columns = (got.users, got.items, got.values, got.timestamps)
    again = RatingsTable(*columns, got.scale)
    kept = (again.users, again.items, again.values, again.timestamps)
    assert all(a is b for a, b in zip(kept, columns))


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
    assert ratings(back) == ratings(t)


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
    assert g.item_ids.tolist() == [1, 2, 3]
    assert g.vectors([1])[0].sum() == 2.0
    assert genres_of(g, 1) == ("Adventure", "Comedy")
    # absent item -> zero vector; it has no id in the map
    assert 99 not in g.item_ids
    assert g.vectors([99, 3]).sum() == 0.0


def test_identical_genres_have_cosine_one(tmp_path):
    g = make_genres({1: ("A", "B"), 2: ("A", "B")}, ("A", "B", "C"))
    a, b = g.vectors([1, 2])
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cos == pytest.approx(1.0)


def test_filter_min_activity_thresholds():
    rows = []
    for u, n in ((1, 60), (2, 10), (3, 50)):
        rows.extend((u, i, 3.0, 0) for i in range(n))
    t = make_table(rows)
    kept = filter_min_activity(t, min_count=50, by="user")
    assert kept.user_ids().tolist() == [1, 3]
    assert len(filter_min_activity(t, min_count=0, by="user")) == len(t)


def test_filter_min_activity_removes_user_with_49():
    rows = [(1, i, 3.0, 0) for i in range(49)] + [(2, i, 3.0, 0) for i in range(50)]
    t = make_table(rows)
    assert filter_min_activity(t, min_count=50).user_ids().tolist() == [2]


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
    keys = set((r[0], r[1]) for r in ratings(t))
    tr = set((r[0], r[1]) for r in ratings(train))
    te = set((r[0], r[1]) for r in ratings(test))
    assert tr | te == keys and not (tr & te)
    for u in (1, 2, 3):
        assert np.count_nonzero(train.users == u) == math.ceil(0.7 * 7)


def test_split_same_seed_identical():
    t = make_table([(u, i, 3.0, i) for u in (1, 2) for i in range(9)])
    a = split_train_test(t, SplitSpec(0.8, 5))
    b = split_train_test(t, SplitSpec(0.8, 5))
    assert ratings(a[0]) == ratings(b[0]) and ratings(a[1]) == ratings(b[1])


def test_split_single_rating_user_goes_to_train(caplog):
    t = make_table([(1, 1, 3.0, 0), (2, 1, 3.0, 0), (2, 2, 3.0, 0), (2, 3, 4.0, 0)])
    with caplog.at_level("WARNING"):
        train, test = split_train_test(t, SplitSpec(0.5, 0))
    assert _has(train, 1, 1) and not _has(test, 1, 1)
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
    tr = set((r[0], r[1]) for r in ratings(train))
    te = set((r[0], r[1]) for r in ratings(test))
    assert not (tr & te)
    for u in range(1, n_users + 1):
        assert np.count_nonzero(train.users == u) == math.ceil(frac * n_items)


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_stats_equal_loop(ids: np.ndarray, values: np.ndarray) -> None:
    """id_stats against np.mean, np.std and len over each id's values in row order."""
    got_ids, mean, std, count = id_stats(ids, values)
    want = sorted(set(ids.tolist()))
    assert got_ids.tolist() == want
    per_id = [values[ids == i] for i in want]
    assert _hexes(mean) == _hexes(np.mean(v) for v in per_id)
    assert _hexes(std) == _hexes(np.std(v) for v in per_id)
    assert count.tolist() == [len(v) for v in per_id]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 7, 60, 700]),
    n_ids=st.sampled_from([1, 3, 40, 700]),
    on_grid=st.booleans(),
)
def test_id_stats_equal_per_id_loop(seed, n, n_ids, on_grid):
    """Ids in any order, from one value each to hundreds (past numpy's
    pairwise-summation block), on the rating grid or anywhere in the scale."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, n_ids, n)
    values = rng.choice(Scale().grid(), n) if on_grid else rng.uniform(0.5, 5.0, n)
    _assert_stats_equal_loop(ids, values)
    _assert_stats_equal_loop(np.sort(ids), values)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), on_grid=st.booleans())
def test_id_stats_equal_loop_on_table_columns(seed, on_grid):
    """Both columns of a table, shuffled, and of the detect split and the
    train + detect context the board profiles on; some users and items
    have a single rating."""
    table, _ = planted_tables(users=25, items=60, ratings_per_user=(1, 40), seed=seed)
    table = table.merged(make_table([(1000, 1000, 2.5, 0)]))  # one rating for both ids
    rng = np.random.default_rng(seed)
    if not on_grid:
        table = RatingsTable(
            table.users, table.items, rng.uniform(0.5, 5.0, len(table)), table.timestamps, Scale()
        )
    train, detect = split_train_test(table, SplitSpec(0.7, seed))
    shuffled = rng.permutation(len(table))
    for t in (table, detect, train.merged(detect)):
        for column in (t.users, t.items):
            _assert_stats_equal_loop(column, t.values)
    for column in (table.users, table.items):
        _assert_stats_equal_loop(column[shuffled], table.values[shuffled])
    assert id_stats(table.users, table.values)[3][-1] == 1
    assert id_stats(table.items, table.values)[3][-1] == 1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 5),
    n_items=st.integers(0, 30),
)
def test_genre_rows_equal_per_item_vectors(tmp_path_factory, seed, width, n_items):
    """GenreMap's row lookup, built from ids in any order and read back from
    a movies.csv, against a per-item dict: unknown and genre-less items
    give zeros, repeated queries repeat rows."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(100, n_items, replace=False)
    vocabulary = tuple(f"g{k}" for k in range(width))
    vectors = {int(i): (rng.random(width) < 0.4).astype(float) for i in ids}
    matrix = np.array([vectors[int(i)] for i in ids]).reshape(n_items, width)
    query = rng.integers(-5, 110, 40)
    want = [vectors.get(int(i), np.zeros(width)).tolist() for i in query]
    g = GenreMap(ids, matrix, vocabulary)
    assert g.item_ids.tolist() == sorted(vectors)
    assert g.vectors(query).tolist() == want
    movies = tmp_path_factory.mktemp("genres") / "movies.csv"
    lines = ["movieId,title,genres"]
    for i in ids.tolist():
        names = [vocabulary[k] for k in np.flatnonzero(vectors[i])]
        lines.append(f"{i},Item {i},{'|'.join(names) or '(no genres listed)'}")
    movies.write_text("\n".join(lines) + "\n")
    loaded = load_genres(movies)
    named = [genres_of(g, int(i)) for i in query]
    assert [genres_of(loaded, int(i)) for i in query] == named
    used = [k for k, name in enumerate(vocabulary) if name in loaded.vocabulary]
    assert loaded.vectors(query).tolist() == [[w[k] for k in used] for w in want]
