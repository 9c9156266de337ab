"""Serendipity: unexpectedness gated by relevance.

An item only counts as serendipitous when the user actually values it
(relevance) and it sits far, in genre space, from everything they already
know (unexpectedness).
"""

from __future__ import annotations

import numpy as np

from ..recsys import TopKList

FORMULA_COMPLEMENT = "complement"
FORMULA_PAPER_LITERAL = "paper_literal"


def _vector_getter(item_vectors):
    # Accepts either a GenreMap-like object or a plain mapping of vectors.
    if hasattr(item_vectors, "vector"):
        return lambda i: np.asarray(item_vectors.vector(i), dtype=np.float64)
    return lambda i: np.asarray(item_vectors[i], dtype=np.float64)


def _cosine_rows(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    num = V @ w
    den = np.linalg.norm(V, axis=1) * np.linalg.norm(w)
    out = np.zeros(len(V))
    np.divide(num, den, out=out, where=den > 0)
    return out


def serendipity(
    recs: TopKList,
    history: set[int],
    relevant: set[int],
    item_vectors,
    formula: str = FORMULA_COMPLEMENT,
) -> float:
    """Mean over recommended items of unexpectedness times relevance.

    s_i is the mean cosine between item i's genre vector and the genre
    vectors of the user's history; unexpectedness is 1 - s_i.  The
    "paper_literal" formula keeps the raw mean cosine as the
    unexpectedness term instead of its complement.  Items with zero
    genre vectors carry no cosine signal, so they are excluded from the
    averaging on both sides; when nothing is left to average the result
    is 0.
    """
    if formula not in (FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL):
        raise ValueError(f"unknown serendipity formula {formula!r}")
    if not history:
        raise ValueError("history must be non-empty")
    if not recs.items:
        return 0.0
    vec = _vector_getter(item_vectors)
    # Every recommended item with a genre vector counts in the mean, but only
    # relevant ones can contribute a nonzero term, so only they need cosines.
    scored = [(item, vec(item)) for item, _score in recs.items]
    scored = [(item, v) for item, v in scored if np.linalg.norm(v) > 0]
    hits = [k for k, (item, _v) in enumerate(scored) if item in relevant]
    if not hits:
        return 0.0
    hist = [vec(h) for h in sorted(history)]
    H = np.array([v for v in hist if np.linalg.norm(v) > 0])
    if len(H) == 0:
        return 0.0
    contributions = np.zeros(len(scored))
    for k in hits:
        s = float(np.mean(_cosine_rows(H, scored[k][1])))
        contributions[k] = s if formula == FORMULA_PAPER_LITERAL else 1.0 - s
    return float(np.mean(contributions))
