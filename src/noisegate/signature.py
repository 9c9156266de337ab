"""Layer 3: signature-based detection of deliberate obfuscation.

The shipped signature targets opt-out behavior: a user whose final active
day is dominated by noisy ratings is treated as having scrambled their own
history on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import RatingsTable, run_starts, sorted_index
from .ioutil import atomic_write_columns, read_columns, row_error

OPTOUT_SIGNATURE_ID = "optout"
DEFAULT_THRESHOLD = 0.5

DENOMINATOR_LAST_DAY = "last_day_activity"
DENOMINATOR_GLOBAL_NOISE = "global_noise"


class SignatureAction(Enum):
    REMOVE_USER = "remove_user"
    REMOVE_LAST_DAY = "remove_last_day"


@dataclass(frozen=True, eq=False)
class Hits:
    """The users the opt-out signature flags, one row per user in ascending
    id: days[k] is the UTC day (days since the epoch) of user k's last
    activity, noisy_count[k] the Noisy ratings on it, total_count[k] the
    denominator and ratio[k] their quotient."""

    users: np.ndarray
    days: np.ndarray
    noisy_count: np.ndarray
    total_count: np.ndarray
    ratio: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


_DAY_SECONDS = 86400
_EPOCH = date(1970, 1, 1)


def utc_day(timestamp: int) -> str:
    """Calendar day (UTC) of a unix timestamp, as YYYY-MM-DD."""
    return datetime.fromtimestamp(int(timestamp), tz=timezone.utc).date().isoformat()


def detect_optout(
    table: RatingsTable,
    noisy: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    denominator: str = DENOMINATOR_LAST_DAY,
) -> Hits:
    """Flag users whose last active day is mostly noise.

    noisy[k] is the final Noisy label of table row k.  The last active day
    is the UTC calendar day of the user's maximum timestamp.  With the
    default denominator the ratio is noisy-on-day over ratings-on-day; the
    global_noise variant divides by the user's total noisy count instead
    (no hit when that count is zero).  The inequality is strict: a ratio
    exactly at the threshold does not fire.
    """
    if denominator not in (DENOMINATOR_LAST_DAY, DENOMINATOR_GLOBAL_NOISE):
        raise ValueError(f"unknown denominator {denominator!r}")
    noisy = np.asarray(noisy, dtype=bool)
    if noisy.shape != (len(table),):
        raise ValueError(f"expected {len(table)} noisy flags, one per table row, got {noisy.shape}")
    users = table.users
    starts = run_starts(users)
    days = table.timestamps // _DAY_SECONDS
    last_day = np.maximum.reduceat(days, starts)
    on_day = days == np.repeat(last_day, np.diff(np.r_[starts, len(users)]))
    noisy_on_day = np.add.reduceat((noisy & on_day).astype(np.int64), starts)
    counted = on_day if denominator == DENOMINATOR_LAST_DAY else noisy
    total = np.add.reduceat(counted.astype(np.int64), starts)
    ratio = noisy_on_day / np.maximum(total, 1)
    fire = np.flatnonzero((total > 0) & (ratio > threshold))
    return Hits(users[starts[fire]], last_day[fire], noisy_on_day[fire], total[fire], ratio[fire])


def apply_signature_action(
    table: RatingsTable,
    hits: Hits,
    action: SignatureAction = SignatureAction.REMOVE_USER,
) -> RatingsTable:
    """Drop flagged users entirely, or only their ratings on the flagged day."""
    if not len(hits):
        return table
    at = sorted_index(hits.users, table.users)
    flagged = at < len(hits)
    if action is SignatureAction.REMOVE_LAST_DAY:
        flagged[flagged] = table.timestamps[flagged] // _DAY_SECONDS == hits.days[at[flagged]]
    return table.subset_rows(np.flatnonzero(~flagged))


HITS_HEADER = ("signatureId", "userId", "lastDay", "noisyCount", "totalCount", "ratio", "action")


def write_hits(hits: Hits, action: SignatureAction, path: str | Path) -> None:
    n = len(hits)
    days = [utc_day(day * _DAY_SECONDS) for day in hits.days.tolist()]
    atomic_write_columns(path, HITS_HEADER, (
        np.full(n, OPTOUT_SIGNATURE_ID, dtype=object), hits.users, np.array(days, dtype=object),
        hits.noisy_count, hits.total_count, hits.ratio, np.full(n, action.value, dtype=object),
    ))


# Text cells are read whole, as Python strings.
_HITS_DTYPE = np.dtype([
    ("signature", object), ("user", np.int64), ("day", object), ("noisy", np.int64),
    ("total", np.int64), ("ratio", np.float64), ("action", object),
])


def read_hits(path: str | Path, action: SignatureAction) -> Hits:
    """The hits of a signature.csv written under action, read by
    read_columns, whose ValueError names a row that does not parse.  Every
    signatureId must be optout, the userIds must strictly ascend, every
    lastDay must be a calendar day written YYYY-MM-DD and every action
    cell must be action, or ValueError naming the row's line (row_error)."""
    rows = read_columns(path, HITS_HEADER, _HITS_DTYPE)
    users = np.ascontiguousarray(rows["user"])
    other = np.flatnonzero(rows["signature"] != OPTOUT_SIGNATURE_ID)
    if len(other):
        k = int(other[0])
        raise row_error(path, k, f"signatureId {rows['signature'][k]!r} is not optout")
    repeated = np.flatnonzero(users[1:] <= users[:-1])
    if len(repeated):
        k = int(repeated[0]) + 1
        raise row_error(path, k, f"userId {users[k]} does not ascend")
    days = []
    for k, (cell, named) in enumerate(zip(rows["day"].tolist(), rows["action"].tolist())):
        try:
            day = date.fromisoformat(cell)
            if day.isoformat() != cell:
                raise ValueError(f"lastDay {cell!r} is not written YYYY-MM-DD")
            if SignatureAction(named) is not action:
                raise ValueError(f"action {named!r}, expected {action.value!r}")
        except ValueError as exc:
            raise row_error(path, k, str(exc)) from exc
        days.append((day - _EPOCH).days)
    return Hits(
        users, np.array(days, dtype=np.int64),
        *(np.ascontiguousarray(rows[name]) for name in ("noisy", "total", "ratio")),
    )
