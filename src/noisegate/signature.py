"""Layer 3: signature-based detection of deliberate obfuscation.

The shipped signature targets opt-out behavior: a user whose final active
day is dominated by noisy ratings is treated as having scrambled their own
history on the way out.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .board.verdict import Verdict
from .dataset import RatingsTable
from .ioutil import atomic_write_columns

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


def utc_day(timestamp: int) -> str:
    """Calendar day (UTC) of a unix timestamp, as YYYY-MM-DD."""
    return datetime.fromtimestamp(int(timestamp), tz=timezone.utc).date().isoformat()


def detect_optout(
    table: RatingsTable,
    labels: dict[tuple[int, int], Verdict],
    threshold: float = DEFAULT_THRESHOLD,
    denominator: str = DENOMINATOR_LAST_DAY,
) -> list[SignatureHit]:
    """Flag users whose last active day is mostly noise.

    The last active day is the UTC calendar day of the user's maximum
    timestamp.  With the default denominator the ratio is noisy-on-day over
    ratings-on-day; the global_noise variant divides by the user's total
    noisy count instead (no hit when that count is zero).  The inequality
    is strict: a ratio exactly at the threshold does not fire.

    Every rating of every user must be labeled; an unlabeled rating is a
    pipeline ordering violation and raises.
    """
    if denominator not in (DENOMINATOR_LAST_DAY, DENOMINATOR_GLOBAL_NOISE):
        raise ValueError(f"unknown denominator {denominator!r}")
    hits: list[SignatureHit] = []
    for user in table.user_ids():
        rows = table.user_rows(user)
        days = [utc_day(int(table.timestamps[k])) for k in rows]
        verdicts = []
        for k in rows:
            key = (user, int(table.items[k]))
            if key not in labels:
                raise ValueError(f"rating {key} has no label; signatures run after Layer 2")
            verdicts.append(labels[key])
        last_day = max(days)
        on_day = [v for d, v in zip(days, verdicts) if d == last_day]
        noisy_on_day = sum(1 for v in on_day if v is Verdict.NOISY)
        if denominator == DENOMINATOR_LAST_DAY:
            total = len(on_day)
        else:
            total = sum(1 for v in verdicts if v is Verdict.NOISY)
        if total > 0 and noisy_on_day / total > threshold:
            hits.append(
                SignatureHit(
                    OPTOUT_SIGNATURE_ID,
                    user,
                    {
                        "last_day": last_day,
                        "noisy_count": noisy_on_day,
                        "total_count": total,
                        "ratio": noisy_on_day / total,
                    },
                )
            )
    return hits


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
    rows = [
        k
        for h in hits
        for k in table.user_rows(h.user_id).tolist()
        if utc_day(int(table.timestamps[k])) == h.evidence["last_day"]
    ]
    return table.without_keys(table.users[rows], table.items[rows])


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


def read_hits(path: str | Path) -> tuple[list[SignatureHit], SignatureAction | None]:
    hits: list[SignatureHit] = []
    action: SignatureAction | None = None
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != HITS_HEADER:
            raise ValueError(f"{path}: expected header {','.join(HITS_HEADER)}")
        for row in reader:
            if len(row) != len(HITS_HEADER):
                raise ValueError(f"{path}: expected {len(HITS_HEADER)} fields in every row")
            hits.append(
                SignatureHit(
                    row[0], int(row[1]),
                    {"last_day": row[2], "noisy_count": int(row[3]),
                     "total_count": int(row[4]), "ratio": float(row[5])},
                )
            )
            action = SignatureAction(row[6])
    return hits, action
