"""User-item class detector.

Users, items, and individual ratings are each sorted into weak/average/strong
style classes by counting which side of two cut-points the ratings fall on.
A rating is flagged when user and item classes form one of the three
homologous combinations but the rating's own class breaks the pattern.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from ..dataset import RatingsTable
from .verdict import Verdict, profile_rows, verdict_map


class UserClass(Enum):
    CRITICAL = "critical"
    AVERAGE = "average"
    BENEVOLENT = "benevolent"
    VARIABLE = "variable"


class ItemClass(Enum):
    WEAKLY_PREFERRED = "weakly_preferred"
    AVERAGELY_PREFERRED = "averagely_preferred"
    STRONGLY_PREFERRED = "strongly_preferred"
    VARIABLY_PREFERRED = "variably_preferred"


class RatingClass(Enum):
    WEAK = "weak"
    AVERAGE = "average"
    STRONG = "strong"


class Nf1Classes(NamedTuple):
    user_class: UserClass
    item_class: ItemClass
    rating_class: RatingClass


DEFAULT_CUTS = (2.5, 4.0)
DEFAULT_MAJORITY = 0.5

# user class x item class -> the rating class a conforming rating must have
HOMOLOGOUS = {
    (UserClass.CRITICAL, ItemClass.WEAKLY_PREFERRED): RatingClass.WEAK,
    (UserClass.AVERAGE, ItemClass.AVERAGELY_PREFERRED): RatingClass.AVERAGE,
    (UserClass.BENEVOLENT, ItemClass.STRONGLY_PREFERRED): RatingClass.STRONG,
}


def classify_rating(value: float, cuts: tuple[float, float] = DEFAULT_CUTS) -> RatingClass:
    """Weak [r_min, c1), Average [c1, c2), Strong [c2, r_max]."""
    c1, c2 = cuts
    if value < c1:
        return RatingClass.WEAK
    if value < c2:
        return RatingClass.AVERAGE
    return RatingClass.STRONG


def _class_codes(values: np.ndarray, cuts: tuple[float, float]) -> np.ndarray:
    """classify_rating over an array: 0 weak, 1 average, 2 strong."""
    c1, c2 = cuts
    return np.where(values < c1, 0, np.where(values < c2, 1, 2))


def _majority_codes(
    ids: np.ndarray, values: np.ndarray, cuts: tuple[float, float], majority: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids (sorted) and, per id, the code of the rating class holding
    strictly more than majority * n of its values (weak first), or 3 for none."""
    uniq, inv = np.unique(ids, return_inverse=True)
    counts = np.bincount(inv * 3 + _class_codes(values, cuts), minlength=3 * len(uniq))
    counts = counts.reshape(-1, 3)
    over = counts > majority * counts.sum(axis=1)[:, None]
    return uniq, np.where(over.any(axis=1), over.argmax(axis=1), 3)


def _classify_set(values: Iterable[float], cuts: tuple[float, float], majority: float) -> int:
    values = np.fromiter(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("empty rating list")
    return int(_majority_codes(np.zeros(len(values), np.int64), values, cuts, majority)[1][0])


_USER_CLASSES = (UserClass.CRITICAL, UserClass.AVERAGE, UserClass.BENEVOLENT, UserClass.VARIABLE)
_ITEM_CLASSES = (
    ItemClass.WEAKLY_PREFERRED,
    ItemClass.AVERAGELY_PREFERRED,
    ItemClass.STRONGLY_PREFERRED,
    ItemClass.VARIABLY_PREFERRED,
)


def nf1_classify_user(
    user_ratings: Iterable[float],
    cuts: tuple[float, float] = DEFAULT_CUTS,
    majority: float = DEFAULT_MAJORITY,
) -> UserClass:
    """Class of the set (weak/average/strong) strictly exceeding majority*n, else Variable."""
    return _USER_CLASSES[_classify_set(user_ratings, cuts, majority)]


def nf1_classify_item(
    item_ratings: Iterable[float],
    cuts: tuple[float, float] = DEFAULT_CUTS,
    majority: float = DEFAULT_MAJORITY,
) -> ItemClass:
    return _ITEM_CLASSES[_classify_set(item_ratings, cuts, majority)]


class Nf1Result(NamedTuple):
    verdicts: dict[tuple[int, int], Verdict]
    user_classes: dict[int, UserClass]
    item_classes: dict[int, ItemClass]


def nf1_detect(
    test: RatingsTable,
    cuts: tuple[float, float] = DEFAULT_CUTS,
    majority: float = DEFAULT_MAJORITY,
    context: RatingsTable | None = None,
) -> Nf1Result:
    """Flag ratings that contradict a homologous user/item class pair.

    Classes are computed over `context` (all available evidence, defaulting
    to the test table itself); verdicts are emitted for test ratings only.
    Ratings whose (user, item) classes form no homologous pair are Clean.
    """
    ctx = context if context is not None else test
    users, user_codes = _majority_codes(
        *profile_rows(test.users, test.values, ctx.users, ctx.values), cuts, majority
    )
    items, item_codes = _majority_codes(
        *profile_rows(test.items, test.values, ctx.items, ctx.values), cuts, majority
    )
    u = user_codes[np.searchsorted(users, test.users)]
    i = item_codes[np.searchsorted(items, test.items)]
    # HOMOLOGOUS pairs user class k with item class k and expects rating class k.
    noisy = (u == i) & (u < 3) & (_class_codes(test.values, cuts) != u)
    return Nf1Result(
        verdict_map(test.keys(), noisy),
        dict(zip(users.tolist(), map(_USER_CLASSES.__getitem__, user_codes.tolist()))),
        dict(zip(items.tolist(), map(_ITEM_CLASSES.__getitem__, item_codes.tolist()))),
    )
