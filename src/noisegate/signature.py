"""Layer 3: signature-based detection of deliberate obfuscation.

The shipped signature targets opt-out behavior: a user whose final active
day is dominated by noisy ratings is treated as having scrambled their own
history on the way out.
"""

from __future__ import annotations

from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import RatingsTable, run_starts
from .ioutil import atomic_write_columns, read_columns

OPTOUT_SIGNATURE_ID = "optout"
DEFAULT_THRESHOLD = 0.5

DENOMINATOR_LAST_DAY = "last_day_activity"
DENOMINATOR_GLOBAL_NOISE = "global_noise"


class SignatureAction(Enum):
    REMOVE_USER = "remove_user"
    REMOVE_LAST_DAY = "remove_last_day"


class SignatureHit(NamedTuple):
    signature_id: str
    user_id: int
    evidence: dict


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
) -> list[SignatureHit]:
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
    if not len(table):
        return []
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
    return [
        SignatureHit(
            OPTOUT_SIGNATURE_ID,
            user,
            {"last_day": utc_day(day * _DAY_SECONDS), "noisy_count": n, "total_count": t,
             "ratio": r},
        )
        for user, day, n, t, r in zip(
            users[starts[fire]].tolist(), last_day[fire].tolist(),
            noisy_on_day[fire].tolist(), total[fire].tolist(), ratio[fire].tolist(),
        )
    ]


def apply_signature_action(
    table: RatingsTable,
    hits: list[SignatureHit],
    action: SignatureAction = SignatureAction.REMOVE_USER,
) -> RatingsTable:
    """Drop flagged users entirely, or only their flagged day's ratings."""
    if not hits:
        return table
    if action is SignatureAction.REMOVE_USER:
        return table.without_users({h.user_id for h in hits})
    # the rows of a hit's user are one run of the table's sorted user column
    users = np.array([h.user_id for h in hits], dtype=np.int64)
    lo = np.searchsorted(table.users, users, side="left").tolist()
    hi = np.searchsorted(table.users, users, side="right").tolist()
    days = table.timestamps // _DAY_SECONDS
    flagged = np.zeros(len(table), dtype=bool)
    for a, b, h in zip(lo, hi, hits):
        day = (date.fromisoformat(h.evidence["last_day"]) - _EPOCH).days
        flagged[a:b] |= days[a:b] == day
    return table.subset_rows(np.flatnonzero(~flagged))


HITS_HEADER = ("signatureId", "userId", "lastDay", "noisyCount", "totalCount", "ratio", "action")


def write_hits(hits: list[SignatureHit], action: SignatureAction, path: str | Path) -> None:
    rows = [
        [h.signature_id, h.user_id, h.evidence["last_day"], h.evidence["noisy_count"],
         h.evidence["total_count"], repr(float(h.evidence["ratio"])), action.value]
        for h in sorted(hits, key=lambda h: (h.signature_id, h.user_id))
    ]
    atomic_write_columns(
        path, HITS_HEADER, (np.array(rows, dtype=object).reshape(-1, len(HITS_HEADER)),)
    )


# Text cells are read whole, as Python strings.
_HITS_DTYPE = np.dtype([
    ("signature", object), ("user", np.int64), ("day", object), ("noisy", np.int64),
    ("total", np.int64), ("ratio", np.float64), ("action", object),
])


def read_hits(path: str | Path) -> tuple[list[SignatureHit], SignatureAction | None]:
    """The hits of a signature.csv in file order, and the action of its last
    row (None for no rows), read by read_columns, whose ValueError names a
    row that does not parse.  Every lastDay must be a calendar day and
    every action a SignatureAction, or ValueError."""
    hits: list[SignatureHit] = []
    action: SignatureAction | None = None
    for signature, user, day, noisy, total, ratio, cell in read_columns(
        path, HITS_HEADER, _HITS_DTYPE
    ).tolist():
        date.fromisoformat(day)  # a calendar day: remove_last_day counts days from it
        action = SignatureAction(cell)
        hits.append(SignatureHit(
            signature, user,
            {"last_day": day, "noisy_count": noisy, "total_count": total, "ratio": ratio},
        ))
    return hits, action
