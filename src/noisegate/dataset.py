"""Rating data structures, loaders, filtering, and the train/test splitter.

Everything downstream (detectors, ensembles, evaluation) consumes the
:class:`RatingsTable` defined here.  Tables are immutable and canonically
ordered by ``(user_id, item_id)`` so that every derived computation is
independent of input row order.  A table holds only its four columns and
its scale, and is built from column arrays alone.  Item genres are a
separate :class:`GenreMap`, passed to the code that reads them (NF2 and
serendipity).  A per-user or per-item value is an array aligned to the
ascending distinct ids (``user_ids()``, ``id_stats``), looked up with
``sorted_index``.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_columns, parse_columns

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

    def grid(self, step: float = 0.5) -> np.ndarray:
        """All attainable values r_min, r_min+step, ..., r_max."""
        n = int(round(self.span / step)) + 1
        return self.r_min + step * np.arange(n)


class GenreMap:
    """Binary genre vectors of items over a fixed sorted vocabulary: one row
    of ``matrix`` per id of the ascending ``item_ids``."""

    def __init__(self, item_ids, matrix, vocabulary: tuple[str, ...]):
        self.vocabulary = tuple(vocabulary)
        ids = np.asarray(item_ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        self.item_ids = ids[order]
        if np.any(self.item_ids[1:] == self.item_ids[:-1]):
            raise ValueError("repeated item id in genre map")
        matrix = np.asarray(matrix, dtype=np.float64).reshape(len(ids), len(self.vocabulary))
        # one all-zero row past the last item, which sorted_index gives unknown ids
        self._rows = np.vstack([matrix[order], np.zeros((1, len(self.vocabulary)))])

    @property
    def matrix(self) -> np.ndarray:
        return self._rows[:-1]

    def vectors(self, items: np.ndarray) -> np.ndarray:
        """Genre vector per item id, one row each; unknown items map to zeros."""
        return self._rows[sorted_index(self.item_ids, np.asarray(items, dtype=np.int64))]


class RatingsTable:
    """Immutable set of ratings with unique (user, item) keys, stored as
    parallel numpy arrays sorted by (user_id, item_id).

    Built from the column arrays in any row order.  Arrays of the column
    dtypes already in key order are kept, not copied, so they must not
    change afterwards.
    """

    def __init__(
        self, users, items, values, timestamps, scale: Scale, dropped_duplicates: int = 0
    ):
        users, items, stamps = (np.asarray(a, dtype=np.int64) for a in (users, items, timestamps))
        values = np.asarray(values, dtype=np.float64)
        if not _in_key_order(users, items):
            order = np.lexsort((items, users))
            users, items, values, stamps = (a[order] for a in (users, items, values, stamps))
        self._users, self._items, self._values, self._timestamps = users, items, values, stamps
        self.scale = scale
        self.dropped_duplicates = dropped_duplicates
        same = (users[1:] == users[:-1]) & (items[1:] == items[:-1])
        if same.any():
            k = int(np.flatnonzero(same)[0])
            raise ValueError(f"duplicate rating key (user={users[k]}, item={items[k]})")
        bad = ~((values >= scale.r_min) & (values <= scale.r_max))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"rating value {values[k]} outside scale "
                f"[{scale.r_min}, {scale.r_max}] for user={users[k]} item={items[k]}"
            )

    # -- basic access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._users)

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

    def user_ids(self) -> np.ndarray:
        """Distinct user ids, ascending."""
        return self._users[run_starts(self._users)]

    def item_ids(self) -> np.ndarray:
        """Distinct item ids, ascending."""
        return np.unique(self._items)

    def _key_codes(self, users, items) -> tuple[np.ndarray, np.ndarray]:
        """One integer code per (user, item) key, for this table's rows and for
        the given pairs.  Codes rank keys in (user, item) order, so the codes
        of this table's rows come sorted."""
        users, items = np.asarray(users, np.int64), np.asarray(items, np.int64)
        _, u = np.unique(np.concatenate([self._users, users]), return_inverse=True)
        i_ids, i = np.unique(np.concatenate([self._items, items]), return_inverse=True)
        codes = u * len(i_ids) + i
        return codes[: len(self)], codes[len(self):]

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Whether each (users[k], items[k]) is a key of this table."""
        own, asked = self._key_codes(users, items)
        return sorted_index(own, asked) < len(self)

    # -- derived tables -----------------------------------------------

    def subset_rows(self, idx: np.ndarray) -> "RatingsTable":
        """The rows at the integer indices idx."""
        return RatingsTable(*(a[idx] for a in self._columns()), self.scale)

    def without_keys(self, users: np.ndarray, items: np.ndarray) -> "RatingsTable":
        """The table less every row keyed by some (users[k], items[k])."""
        own, dropped = self._key_codes(users, items)
        return self.subset_rows(np.flatnonzero(~np.isin(own, dropped)))

    def merged(self, other: "RatingsTable") -> "RatingsTable":
        """Union of two tables with disjoint keys."""
        return RatingsTable(
            *(np.concatenate([a, b]) for a, b in zip(self._columns(), other._columns())), self.scale
        )

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._users, self._items, self._values, self._timestamps

    def to_csv(self, path: str | Path) -> None:
        atomic_write_columns(path, RATINGS_HEADER, self._columns())


def _in_key_order(users: np.ndarray, items: np.ndarray) -> bool:
    """Whether the (user, item) keys strictly increase down the rows, so
    they are sorted and unique."""
    later = (users[1:] > users[:-1]) | ((users[1:] == users[:-1]) & (items[1:] > items[:-1]))
    return bool(later.all())


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first row of each run of equal adjacent keys."""
    if not len(keys):
        return np.arange(0)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def id_runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order, distinct ids, starts, lengths): the stable argsort of ids, and
    each distinct id, ascending, with its run in ids[order].  Within a run the
    rows keep their order in ids."""
    order = np.argsort(ids, kind="stable")
    starts = run_starts(ids[order])
    return order, ids[order][starts], starts, np.diff(np.r_[starts, len(ids)])


def id_stats(
    ids: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(distinct ids, mean, population std, count) of values per id, ids
    ascending.  Each mean and std equals np.mean and np.std of that id's
    values in row order, bit for bit: the std is the square root of the mean
    squared deviation from the mean, np.std's own steps."""
    order, uniq, starts, counts = id_runs(ids)
    values = values[order]
    mean = segment_means(values, starts, counts)
    dev = values - np.repeat(mean, counts)
    return uniq, mean, np.sqrt(segment_means(dev * dev, starts, counts)), counts


def sorted_index(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id among sorted unique keys; len(keys) where absent."""
    at = np.searchsorted(keys, ids)
    found = at < len(keys)
    found[found] = keys[at[found]] == ids[found]
    return np.where(found, at, len(keys))


def context_index(keys: np.ndarray, ids: np.ndarray, what: str) -> np.ndarray:
    """sorted_index where keys, a context table's sorted ids, must hold every
    id: ValueError names the first absent one, a `what` ("user" or "item")."""
    at = sorted_index(keys, ids)
    if (at == len(keys)).any():
        raise ValueError(f"{what} {ids[at == len(keys)][0]} has no rating in the context table")
    return at


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


_INT64_MAX = int(np.iinfo(np.int64).max)


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
            if max(user, item) > _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: id outside int64 in row {row!r}")
            if stamp < 0:
                raise ValueError(f"{path}:{lineno}: negative timestamp {stamp}")
            if stamp > _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: timestamp {stamp} outside int64")
            if not scale.contains(value):
                raise ValueError(
                    f"{path}:{lineno}: rating {value} outside scale [{scale.r_min}, {scale.r_max}]"
                )
            rows.append((user, item, value, stamp))
    return rows


_RATINGS_DTYPE = np.dtype(
    [("user", np.int64), ("item", np.int64), ("value", np.float64), ("stamp", np.int64)]
)


def _read_ratings_columns(path: Path, scale: Scale) -> list[np.ndarray]:
    """The four columns of a ratings CSV, in file order, each one
    contiguous array.

    The file comes from outside the program, so a file parse_columns does
    not take, or one with a row out of range, goes to the row parser,
    which reads it or raises the message that names its first bad row.
    """
    try:
        rows = parse_columns(path, RATINGS_HEADER, _RATINGS_DTYPE)
    except ValueError:
        pass
    else:
        users, items, values, stamps = (rows[name] for name in _RATINGS_DTYPE.names)
        if (
            (users >= 0).all() and (items >= 0).all() and (stamps >= 0).all()
            and ((values >= scale.r_min) & (values <= scale.r_max)).all()
        ):
            return [np.ascontiguousarray(a) for a in (users, items, values, stamps)]
    parsed = _parse_ratings_rows(path, scale)
    return [np.array([r[k] for r in parsed]) for k in range(4)]


def load_ratings(path: str | Path, scale: Scale = Scale()) -> RatingsTable:
    """Read a ratings CSV (userId,movieId,rating,timestamp) into a table.

    Of rows sharing a (user, item) key, the one with the latest timestamp
    stays, and of those the later in the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    users, items, values, stamps = _read_ratings_columns(path, scale)
    n_rows = len(users)
    if not _in_key_order(users, items):
        # lexsort is stable, so rows of one (user, item, timestamp) stay in
        # file order, and the last row of each key is the one to keep.
        order = np.lexsort((stamps, items, users))
        u, i = users[order], items[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = (u[1:] != u[:-1]) | (i[1:] != i[:-1])
        keep = order[last]
        users, items, values, stamps = (a[keep] for a in (users, items, values, stamps))
    dropped = n_rows - len(users)
    if dropped:
        logger.warning("%s: dropped %d duplicate rating(s), keeping latest timestamp", path, dropped)
    return RatingsTable(users, items, values, stamps, scale, dropped_duplicates=dropped)


def load_genres(path: str | Path) -> GenreMap:
    """Read a movies CSV (movieId,title,genres) into item genre vectors.

    Genres are pipe-separated; the placeholder '(no genres listed)' maps to a
    zero vector.  The vocabulary is the sorted set of distinct genre strings.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    items: list[int] = []
    names: list[tuple[str, ...]] = []
    first_line: dict[int, int] = {}
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
            if item < 0:
                raise ValueError(f"{path}:{lineno}: negative movieId {item}")
            if item > _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: movieId {item} outside int64")
            if item in first_line:
                raise ValueError(
                    f"{path}:{lineno}: repeated movieId {item} (first on line {first_line[item]})"
                )
            first_line[item] = lineno
            field = row[2].strip()
            items.append(item)
            if not field or field == NO_GENRES_TOKEN:
                names.append(())
            else:
                names.append(tuple(g.strip() for g in field.split("|") if g.strip()))
    vocabulary = tuple(sorted({g for gs in names for g in gs}))
    index = {g: k for k, g in enumerate(vocabulary)}
    matrix = np.zeros((len(items), len(vocabulary)))
    for row, gs in enumerate(names):
        matrix[row, [index[g] for g in gs]] = 1.0
    return GenreMap(items, matrix, vocabulary)


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
    return table.subset_rows(np.flatnonzero(np.isin(col, ids[counts >= min_count])))


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
    starts = run_starts(table.users)
    ends = np.r_[starts[1:], len(table)]
    for user, lo, hi in zip(table.users[starts].tolist(), starts.tolist(), ends.tolist()):
        n = hi - lo
        n_train = math.ceil(spec.train_fraction * n)
        if n == 1:
            logger.warning("user %d has a single rating; assigning it to train", user)
        rng = np.random.default_rng([spec.seed, user])
        perm = lo + rng.permutation(n)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train = table.subset_rows(np.concatenate(train_idx) if train_idx else np.arange(0))
    test = table.subset_rows(np.concatenate(test_idx) if test_idx else np.arange(0))
    return train, test
