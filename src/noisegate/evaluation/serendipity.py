"""Serendipity: unexpectedness gated by relevance.

An item only counts as serendipitous when the user actually values it
(relevance) and it sits far, in genre space, from everything they already
know (unexpectedness).
"""

from __future__ import annotations

import numpy as np

from ..dataset import GenreMap, RatingsTable, segment_means, sorted_index

FORMULA_COMPLEMENT = "complement"
FORMULA_PAPER_LITERAL = "paper_literal"


def serendipity(
    topk: np.ndarray,
    hit: np.ndarray,
    history: RatingsTable,
    users: np.ndarray,
    genres: GenreMap,
    formula: str = FORMULA_COMPLEMENT,
) -> np.ndarray:
    """Per user, the mean over recommended items of unexpectedness times relevance.

    topk holds each user's recommended item ids (-1 as padding) for the
    ascending id array users, hit marks the relevant ones, and history's
    rows of a user are their known items.  s_i is the mean cosine between
    item i's genre vector and the genre vectors of the user's history;
    unexpectedness is 1 - s_i.  The "paper_literal" formula keeps the raw
    mean cosine as the unexpectedness term instead of its complement.
    Items with zero genre vectors carry no cosine signal, so they are
    excluded from the averaging on both sides; when nothing is left to
    average the result is 0.

    Every mean goes through segment_means, so it keeps np.mean's pairwise
    order.  On integer genre vectors, which load_genres gives, every dot
    product and squared norm is an exact integer, so no bit depends on the
    order of those sums either.
    """
    if formula not in (FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL):
        raise ValueError(f"unknown serendipity formula {formula!r}")
    n = len(users)
    owner = sorted_index(np.asarray(users, dtype=np.int64), history.users)
    mine = np.flatnonzero(owner < n)
    if np.any(np.bincount(owner[mine], minlength=n) == 0):
        raise ValueError("history must be non-empty")
    listed = topk >= 0
    ids, inv = np.unique(np.concatenate([history.items[mine], topk[listed]]), return_inverse=True)
    G = genres.vectors(ids)
    norm = np.sqrt(np.einsum("ij,ij->i", G, G))
    # history vectors with a genre signal, grouped by user in ascending item id
    known = inv[: len(mine)]
    signal = norm[known] > 0
    known, known_owner = known[signal], owner[mine][signal]
    width = np.bincount(known_owner, minlength=n)
    # recommended cells with a genre signal count in the user's mean; the
    # relevant ones of a user with some history signal carry a term
    item = np.zeros(topk.shape, dtype=np.int64)
    item[listed] = inv[len(mine):]
    scored = listed & (norm[item] > 0)
    u, j = np.nonzero(hit & scored & (width > 0)[:, None])
    # the cosines of each such cell against its user's history, cell by cell
    span = width[u]
    first = np.cumsum(span) - span
    pair = np.repeat(np.arange(len(u)), span)
    h = known[(np.cumsum(width) - width)[u][pair] + np.arange(len(pair)) - first[pair]]
    g = item[u, j][pair]
    cos = np.einsum("ij,ij->i", G[h], G[g]) / (norm[h] * norm[g])
    s = segment_means(cos, first, span)
    terms = np.zeros(topk.shape)
    terms[u, j] = s if formula == FORMULA_PAPER_LITERAL else 1.0 - s
    count = np.count_nonzero(scored, axis=1)
    out = np.zeros(n)
    has = np.bincount(u, minlength=n) > 0
    out[has] = segment_means(terms[scored], (np.cumsum(count) - count)[has], count[has])
    return out
