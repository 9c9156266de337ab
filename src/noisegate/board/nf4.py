"""Fuzzy-profile detector.

Ratings, users and items all live on a low/medium/high simplex.  When a
user's taste profile and an item's reception profile agree, a rating far
from both (Manhattan distance above 1 on either side, mapped to [0,1]) is
flagged.  Dissimilar user/item pairs give no basis to judge, so their
ratings pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dataset import RatingsTable, Scale, segment_means
from .verdict import Verdict, profile_rows, verdict_map

DEFAULT_DELTA1 = 1.0
DEFAULT_DELTA2 = 0.25


class FuzzyProfile(NamedTuple):
    low: float
    medium: float
    high: float


def nf4_fuzzify(r: float, scale: Scale) -> FuzzyProfile:
    """Triangular membership over the scale: partition of unity in [0,1]^3."""
    if not scale.contains(r):
        raise ValueError(f"rating {r} outside scale [{scale.r_min}, {scale.r_max}]")
    t = (r - scale.r_min) / scale.span
    low = max(0.0, 1.0 - 2.0 * t)
    high = max(0.0, 2.0 * t - 1.0)
    medium = 1.0 - low - high
    return FuzzyProfile(low, medium, high)


def manhattan(a: FuzzyProfile, b: FuzzyProfile) -> float:
    """L1 distance between profiles; bounded by 2 on the simplex."""
    return abs(a.low - b.low) + abs(a.medium - b.medium) + abs(a.high - b.high)


def dissim(a: FuzzyProfile, b: FuzzyProfile) -> float:
    """Map Manhattan distance [1,2] to dissimilarity [0,1]; below 1 is 0."""
    return max(0.0, manhattan(a, b) - 1.0)


def _fuzzy(values: np.ndarray, scale: Scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nf4_fuzzify over an array: (low, medium, high) columns."""
    t = (values - scale.r_min) / scale.span
    low = np.maximum(0.0, 1.0 - 2.0 * t)
    high = np.maximum(0.0, 2.0 * t - 1.0)
    return low, 1.0 - low - high, high


def _mean_profiles(
    test_ids: np.ndarray, test_values: np.ndarray, ctx: tuple[np.ndarray, np.ndarray], scale: Scale
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct test ids (sorted) and their mean fuzzy profiles, one row each,
    over the rows profile_rows picks; each mean is np.mean of the id's values."""
    ids, values = profile_rows(test_ids, test_values, *ctx)
    order = np.argsort(ids, kind="stable")
    uniq, starts, lengths = np.unique(ids[order], return_index=True, return_counts=True)
    profile = [segment_means(col[order], starts, lengths) for col in _fuzzy(values, scale)]
    return uniq, np.column_stack(profile) if len(uniq) else np.zeros((0, 3))


def _manhattan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, 0] - b[:, 0]) + np.abs(a[:, 1] - b[:, 1]) + np.abs(a[:, 2] - b[:, 2])


class Nf4Result(NamedTuple):
    verdicts: dict[tuple[int, int], Verdict]
    noise_degree: dict[tuple[int, int], float]
    user_profiles: dict[int, FuzzyProfile]
    item_profiles: dict[int, FuzzyProfile]
    n_prefiltered: int


def nf4_detect(
    test: RatingsTable,
    delta1: float = DEFAULT_DELTA1,
    delta2: float = DEFAULT_DELTA2,
    context: RatingsTable | None = None,
) -> Nf4Result:
    """Flag ratings far from both their user's and their item's fuzzy profile.

    Profiles are arithmetic means of fuzzified ratings over `context`
    (defaults to the test table).  Pairs with d(user, item) >= delta1 are prefiltered Clean; otherwise the
    noise degree is min(dissim(user, rating), dissim(item, rating)) and the
    rating is Noisy iff it exceeds delta2.
    """
    ctx = context if context is not None else test
    scale = test.scale
    users, user_p = _mean_profiles(test.users, test.values, (ctx.users, ctx.values), scale)
    items, item_p = _mean_profiles(test.items, test.values, (ctx.items, ctx.values), scale)
    up = user_p[np.searchsorted(users, test.users)]
    ip = item_p[np.searchsorted(items, test.items)]
    rp = np.column_stack(_fuzzy(test.values, scale))
    prefiltered = _manhattan(up, ip) >= delta1
    degree = np.minimum(
        np.maximum(0.0, _manhattan(up, rp) - 1.0), np.maximum(0.0, _manhattan(ip, rp) - 1.0)
    )
    degree[prefiltered] = 0.0
    keys = test.keys()
    return Nf4Result(
        verdict_map(keys, (degree > delta2) & ~prefiltered),
        dict(zip(keys, degree.tolist())),
        dict(zip(users.tolist(), map(FuzzyProfile._make, user_p.tolist()))),
        dict(zip(items.tolist(), map(FuzzyProfile._make, item_p.tolist()))),
        int(prefiltered.sum()),
    )
