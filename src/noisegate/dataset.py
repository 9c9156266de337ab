"""Rating data structures, loaders, filtering, and the train/test splitter.

Everything downstream (detectors, ensembles, evaluation) consumes the
:class:`RatingsTable` defined here.  Tables are immutable and canonically
ordered by ``(user_id, item_id)`` so that every derived computation is
independent of input row order.
"""

from __future__ import annotations

import copy
import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .ioutil import atomic_write_csv

logger = logging.getLogger("noisegate.dataset")

RATINGS_HEADER = ("userId", "movieId", "rating", "timestamp")
MOVIES_HEADER = ("movieId", "title", "genres")
NO_GENRES_TOKEN = "(no genres listed)"


@dataclass(frozen=True)
class Scale:
    """Closed rating interval [r_min, r_max]."""

    r_min: float = 0.5
    r_max: float = 5.0

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise ValueError(f"scale requires r_min < r_max, got ({self.r_min}, {self.r_max})")

    @property
    def span(self) -> float:
        return self.r_max - self.r_min

    def contains(self, value: float) -> bool:
        return self.r_min <= value <= self.r_max

    def clamp(self, value: float) -> float:
        return min(self.r_max, max(self.r_min, value))

    def grid(self, step: float = 0.5) -> np.ndarray:
        """All attainable values r_min, r_min+step, ..., r_max."""
        n = int(round(self.span / step)) + 1
        return self.r_min + step * np.arange(n)


class Rating(NamedTuple):
    user_id: int
    item_id: int
    value: float
    timestamp: int


class GenreMap:
    """item_id -> binary genre vector over a fixed sorted vocabulary."""

    def __init__(self, vectors: dict[int, np.ndarray], vocabulary: tuple[str, ...]):
        self._vectors = vectors
        self.vocabulary = tuple(vocabulary)
        self._zero = np.zeros(len(self.vocabulary))

    @property
    def n_genres(self) -> int:
        return len(self.vocabulary)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._vectors

    def vector(self, item_id: int) -> np.ndarray:
        """Genre vector for the item; items without a genre row map to zeros."""
        return self._vectors.get(item_id, self._zero)

    def genres_of(self, item_id: int) -> tuple[str, ...]:
        vec = self.vector(item_id)
        return tuple(g for g, bit in zip(self.vocabulary, vec) if bit)

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        return iter(self._vectors.items())


class RatingsTable:
    """Immutable set of ratings with unique (user, item) keys.

    Rows are stored as parallel numpy arrays sorted by (user_id, item_id).
    """

    def __init__(
        self,
        rows: Iterable[tuple[int, int, float, int]],
        scale: Scale,
        genres: GenreMap | None = None,
        dropped_duplicates: int = 0,
    ):
        rows = list(rows)
        columns = (np.array([r[k] for r in rows]) for k in range(4))
        self._set_arrays(*columns, scale, genres, dropped_duplicates)

    @classmethod
    def from_arrays(
        cls, users, items, values, timestamps, scale: Scale,
        genres: GenreMap | None = None, dropped_duplicates: int = 0,
    ) -> "RatingsTable":
        """Table over parallel column arrays, in any row order."""
        out = cls.__new__(cls)
        out._set_arrays(users, items, values, timestamps, scale, genres, dropped_duplicates)
        return out

    def _set_arrays(self, users, items, values, stamps, scale, genres, dropped_duplicates) -> None:
        users, items, stamps = (np.asarray(a, dtype=np.int64) for a in (users, items, stamps))
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((items, users))
        self._users = users[order]
        self._items = items[order]
        self._values = values[order]
        self._timestamps = stamps[order]
        self.scale = scale
        self.genres = genres
        self.dropped_duplicates = dropped_duplicates
        if len(self._users):
            same = (self._users[1:] == self._users[:-1]) & (self._items[1:] == self._items[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(
                    f"duplicate rating key (user={self._users[k]}, item={self._items[k]})"
                )
            bad = ~((self._values >= scale.r_min) & (self._values <= scale.r_max))
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"rating value {self._values[k]} outside scale "
                    f"[{scale.r_min}, {scale.r_max}] for user={self._users[k]} item={self._items[k]}"
                )
        self._user_rows = split_runs(self._users, np.arange(len(self._users)))
        self._item_rows: dict[int, np.ndarray] | None = None
        self._user_stats: dict[int, tuple[float, float, int]] | None = None
        self._item_stats: dict[int, tuple[float, float, int]] | None = None

    # -- basic access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self) -> Iterator[Rating]:
        for k in range(len(self._users)):
            yield Rating(
                int(self._users[k]), int(self._items[k]),
                float(self._values[k]), int(self._timestamps[k]),
            )

    @property
    def users(self) -> np.ndarray:
        return self._users

    @property
    def items(self) -> np.ndarray:
        return self._items

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    def user_ids(self) -> list[int]:
        return sorted(self._user_rows)

    def item_ids(self) -> list[int]:
        return sorted(set(self._items.tolist()))

    def user_rows(self, user_id: int) -> np.ndarray:
        """Row indices of one user's ratings (empty array if absent)."""
        return self._user_rows.get(user_id, np.arange(0))

    def item_rows(self, item_id: int) -> np.ndarray:
        if self._item_rows is None:
            order = np.argsort(self._items, kind="stable")
            self._item_rows = split_runs(self._items[order], order)
        return self._item_rows.get(item_id, np.arange(0))

    def user_profile(self, user_id: int) -> dict[int, float]:
        """item_id -> value map for one user."""
        rows = self.user_rows(user_id)
        return {int(self._items[k]): float(self._values[k]) for k in rows}

    def keys(self) -> list[tuple[int, int]]:
        """(user_id, item_id) of every row, in row order."""
        return list(zip(self._users.tolist(), self._items.tolist()))

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Whether each (users[k], items[k]) is a key of this table."""
        _, u = np.unique(np.concatenate([self._users, users]), return_inverse=True)
        i_ids, i = np.unique(np.concatenate([self._items, items]), return_inverse=True)
        # Ranks keep the (user, item) order, so this table's codes come sorted.
        codes = u * len(i_ids) + i
        return sorted_index(codes[: len(self)], codes[len(self):]) < len(self)

    def has(self, user_id: int, item_id: int) -> bool:
        """contains() for one pair; it costs a sort of the table, so batch lookups."""
        return bool(self.contains(np.array([user_id]), np.array([item_id]))[0])

    def value_of(self, user_id: int, item_id: int) -> float:
        rows = self.user_rows(user_id)
        pos = np.searchsorted(self._items[rows], item_id)
        if pos >= len(rows) or self._items[rows[pos]] != item_id:
            raise KeyError((user_id, item_id))
        return float(self._values[rows[pos]])

    def user_stats(self) -> dict[int, tuple[float, float, int]]:
        """user_id -> (mean, population std, count) over this table."""
        if self._user_stats is None:
            self._user_stats = {
                u: (float(self._values[rows].mean()), float(self._values[rows].std()), len(rows))
                for u, rows in self._user_rows.items()
            }
        return self._user_stats

    def item_stats(self) -> dict[int, tuple[float, float, int]]:
        """item_id -> (mean, population std, count) over this table."""
        if self._item_stats is None:
            self._item_stats = {}
            for i in self.item_ids():
                rows = self.item_rows(i)
                self._item_stats[i] = (
                    float(self._values[rows].mean()), float(self._values[rows].std()), len(rows)
                )
        return self._item_stats

    def rows(self) -> list[tuple[int, int, float, int]]:
        return list(zip(self._users.tolist(), self._items.tolist(),
                        self._values.tolist(), self._timestamps.tolist()))

    # -- derived tables -----------------------------------------------

    def _take(self, idx: np.ndarray) -> "RatingsTable":
        return RatingsTable.from_arrays(
            self._users[idx], self._items[idx], self._values[idx], self._timestamps[idx],
            self.scale, self.genres,
        )

    def subset_rows(self, idx: np.ndarray) -> "RatingsTable":
        return self._take(np.asarray(idx, dtype=np.int64))

    def without_keys(self, keys: set[tuple[int, int]]) -> "RatingsTable":
        keep = np.array(
            [(int(u), int(i)) not in keys for u, i in zip(self._users, self._items)],
            dtype=bool,
        )
        return self._take(np.flatnonzero(keep))

    def without_users(self, users: set[int]) -> "RatingsTable":
        keep = ~np.isin(self._users, sorted(users))
        return self._take(np.flatnonzero(keep))

    def merged(self, other: "RatingsTable") -> "RatingsTable":
        """Union of two tables with disjoint keys."""
        return RatingsTable.from_arrays(
            *(np.concatenate([a, b]) for a, b in zip(self._columns(), other._columns())),
            self.scale, self.genres,
        )

    def with_genres(self, genres: GenreMap) -> "RatingsTable":
        """The same rows with another genre map; the row arrays are shared."""
        out = copy.copy(self)
        out.genres = genres
        return out

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._users, self._items, self._values, self._timestamps

    def to_csv(self, path: str | Path) -> None:
        atomic_write_csv(
            path, RATINGS_HEADER, ([u, i, repr(float(v)), t] for u, i, v, t in self.rows())
        )


def split_runs(keys: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """key -> its run of rows, for keys[k] labelling rows[k] with equal keys adjacent."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else keys
    return {
        int(k): block
        for k, block in zip(keys[starts].tolist(), np.split(rows, starts[1:]))
    }


def sorted_index(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id among sorted unique keys; len(keys) where absent."""
    at = np.searchsorted(keys, ids)
    found = at < len(keys)
    found[found] = keys[at[found]] == ids[found]
    return np.where(found, at, len(keys))


def segment_means(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.mean of each slice values[s : s + n], equal bit for bit to one call per slice.

    Slices of one length are averaged as the rows of one matrix, which numpy
    reduces row by row with the same pairwise summation as a 1-D call.
    """
    out = np.empty(len(starts))
    for n in np.unique(lengths).tolist():
        sel = np.flatnonzero(lengths == n)
        out[sel] = values[starts[sel, None] + np.arange(n)].mean(axis=1)
    return out


# -- loaders ----------------------------------------------------------


def _parse_ratings_rows(path: Path, scale: Scale) -> list[tuple[int, int, float, int]]:
    rows: list[tuple[int, int, float, int]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != RATINGS_HEADER:
            raise ValueError(f"{path}: expected header {','.join(RATINGS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                user = int(row[0])
                item = int(row[1])
                value = float(row[2])
                stamp = int(row[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if user < 0 or item < 0:
                raise ValueError(f"{path}:{lineno}: negative id in row {row!r}")
            if stamp < 0:
                raise ValueError(f"{path}:{lineno}: negative timestamp {stamp}")
            if not scale.contains(value):
                raise ValueError(
                    f"{path}:{lineno}: rating {value} outside scale [{scale.r_min}, {scale.r_max}]"
                )
            rows.append((user, item, value, stamp))
    return rows


def dedupe_rows(
    rows: Iterable[tuple[int, int, float, int]],
) -> tuple[list[tuple[int, int, float, int]], int]:
    """Collapse duplicate (user, item) keys keeping the latest timestamp.

    Timestamp ties keep the later occurrence.  Returns (rows, dropped_count).
    """
    best: dict[tuple[int, int], tuple[int, int, float, int]] = {}
    dropped = 0
    for row in rows:
        key = (row[0], row[1])
        prev = best.get(key)
        if prev is None:
            best[key] = row
        else:
            dropped += 1
            if row[3] >= prev[3]:
                best[key] = row
    return list(best.values()), dropped


def load_ratings(path: str | Path, scale: Scale = Scale()) -> RatingsTable:
    """Read a ratings CSV (userId,movieId,rating,timestamp) into a table."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    rows = _parse_ratings_rows(path, scale)
    rows, dropped = dedupe_rows(rows)
    if dropped:
        logger.warning("%s: dropped %d duplicate rating(s), keeping latest timestamp", path, dropped)
    return RatingsTable(rows, scale, dropped_duplicates=dropped)


def load_genres(path: str | Path) -> GenreMap:
    """Read a movies CSV (movieId,title,genres) into item genre vectors.

    Genres are pipe-separated; the placeholder '(no genres listed)' maps to a
    zero vector.  The vocabulary is the sorted set of distinct genre strings.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    raw: dict[int, tuple[str, ...]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != MOVIES_HEADER:
            raise ValueError(f"{path}: expected header {','.join(MOVIES_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                item = int(row[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed movieId {row[0]!r}") from exc
            field = row[2].strip()
            if not field or field == NO_GENRES_TOKEN:
                raw[item] = ()
            else:
                raw[item] = tuple(g.strip() for g in field.split("|") if g.strip())
    vocabulary = tuple(sorted({g for gs in raw.values() for g in gs}))
    index = {g: k for k, g in enumerate(vocabulary)}
    vectors: dict[int, np.ndarray] = {}
    for item, gs in raw.items():
        vec = np.zeros(len(vocabulary))
        for g in gs:
            vec[index[g]] = 1.0
        vectors[item] = vec
    return GenreMap(vectors, vocabulary)


# -- filtering and splitting ------------------------------------------


def filter_min_activity(
    table: RatingsTable, min_count: int = 50, by: str = "user"
) -> RatingsTable:
    """Drop users (or items) with fewer than min_count ratings.

    Applied once; counts are taken on the input table, not re-derived after
    each removal.
    """
    if by not in ("user", "item"):
        raise ValueError(f"by must be 'user' or 'item', got {by!r}")
    col = table.users if by == "user" else table.items
    ids, counts = np.unique(col, return_counts=True)
    keep_ids = set(ids[counts >= min_count].tolist())
    keep = np.array([x in keep_ids for x in col.tolist()], dtype=bool)
    return table.subset_rows(np.flatnonzero(keep))


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError(f"train_fraction must be in (0, 1], got {self.train_fraction}")


def split_train_test(table: RatingsTable, spec: SplitSpec) -> tuple[RatingsTable, RatingsTable]:
    """Per-user stratified split: ceil(train_fraction * n_u) ratings to train.

    Each user's rows are shuffled by a seeded generator (chronology plays no
    role), so the assignment is deterministic for a given (seed, user) and
    independent of every other user.
    """
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for user in table.user_ids():
        rows = table.user_rows(user)
        n = len(rows)
        n_train = math.ceil(spec.train_fraction * n)
        if n == 1:
            logger.warning("user %d has a single rating; assigning it to train", user)
        rng = np.random.default_rng([spec.seed, user])
        perm = rng.permutation(n)
        train_idx.append(rows[perm[:n_train]])
        test_idx.append(rows[perm[n_train:]])
    train = table.subset_rows(np.concatenate(train_idx) if train_idx else np.arange(0))
    test = table.subset_rows(np.concatenate(test_idx) if test_idx else np.arange(0))
    return train, test
