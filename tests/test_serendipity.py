"""Serendipity: relevance-gated unexpectedness over genre vectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.dataset import GenreMap
from noisegate.evaluation.serendipity import (
    FORMULA_COMPLEMENT,
    FORMULA_PAPER_LITERAL,
    serendipity,
)

from .conftest import genre_map, make_genres, make_table
from .oracles import genre_vector, serendipity_loop


def _genre_map(vectors) -> GenreMap:
    width = len(next(iter(vectors.values())))
    return genre_map(vectors, tuple(f"g{k}" for k in range(width)))


def _one(recs, history, relevant, vectors, formula=FORMULA_COMPLEMENT):
    """serendipity of one user's list through the array call."""
    genres = vectors if isinstance(vectors, GenreMap) else _genre_map(vectors)
    topk = np.array(recs, dtype=np.int64).reshape(1, len(recs))
    hit = np.array([item in relevant for item in recs], dtype=bool).reshape(1, len(recs))
    history = make_table([(1, h, 3.0, 0) for h in sorted(history)])
    return float(serendipity(topk, hit, history, np.array([1]), genres, formula)[0])


ONE_HOT = {
    1: [1.0, 0.0, 0.0],
    2: [1.0, 0.0, 0.0],
    3: [0.0, 1.0, 0.0],
    4: [0.0, 0.0, 1.0],
    5: [1.0, 1.0, 0.0],
    6: [0.0, 0.0, 0.0],
}


def test_identical_genres_zero_serendipity():
    got = _one([2], {1}, {2}, ONE_HOT)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_relevant_item_scores_one():
    got = _one([3], {1, 2}, {3}, ONE_HOT)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_irrelevant_items_contribute_zero():
    # maximal unexpectedness but no relevance
    got = _one([3, 4], {1}, set(), ONE_HOT)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_mixed_list_averages_contributions():
    # item 3 orthogonal+relevant -> 1; item 2 identical+relevant -> 0
    got = _one([3, 2], {1}, {2, 3}, ONE_HOT)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_paper_literal_inverts_familiarity():
    same = _one([2], {1}, {2}, ONE_HOT, formula=FORMULA_PAPER_LITERAL)
    assert same == pytest.approx(1.0, abs=1e-12)
    orthogonal = _one([3], {1}, {3}, ONE_HOT, formula=FORMULA_PAPER_LITERAL)
    assert orthogonal == pytest.approx(0.0, abs=1e-12)


def test_zero_vector_recommendation_excluded():
    # item 6 has no genre signal; the average is over item 3 alone
    got = _one([6, 3], {1}, {3, 6}, ONE_HOT)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_zero_vector_history_excluded():
    got = _one([3], {1, 6}, {3}, ONE_HOT)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_all_zero_history_scores_zero():
    assert _one([3], {6}, {3}, ONE_HOT) == 0.0


def test_all_zero_recommendations_score_zero():
    assert _one([6], {1}, {6}, ONE_HOT) == 0.0


def test_empty_recommendations_score_zero():
    assert _one([], {1}, {1}, ONE_HOT) == 0.0


def test_empty_history_raises():
    with pytest.raises(ValueError, match="history"):
        _one([3], set(), {3}, ONE_HOT)


def test_unknown_formula_raises():
    with pytest.raises(ValueError, match="formula"):
        _one([3], {1}, {3}, ONE_HOT, formula="odd")


def test_half_overlap_cosine_value():
    # cos((1,1,0),(1,0,0)) = 1/sqrt(2); lone history item, relevant rec
    got = _one([5], {1}, {5}, ONE_HOT)
    assert got == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-12)


def test_genre_map_vectors_accepted():
    genres = make_genres(
        {1: ("Action",), 2: ("Action",), 3: ("Comedy",)},
        ("Action", "Comedy"),
    )
    assert _one([3], {1, 2}, {3}, genres) == pytest.approx(1.0, abs=1e-12)
    assert _one([2], {1}, {2}, genres) == pytest.approx(0.0, abs=1e-12)


def test_random_fixtures_match_brute_force():
    rng = np.random.default_rng(909)
    for trial in range(25):
        n_vocab = int(rng.integers(2, 5))
        vectors = {}
        for item in range(20):
            v = (rng.random(n_vocab) < 0.5).astype(float)
            vectors[item] = v
        history = {int(i) for i in rng.choice(20, size=int(rng.integers(1, 6)), replace=False)}
        recs = [int(i) for i in rng.choice(20, size=int(rng.integers(0, 8)), replace=False)]
        relevant = {int(i) for i in rng.choice(20, size=int(rng.integers(0, 10)), replace=False)}
        for formula in (FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL):
            got = _one(recs, history, relevant, vectors, formula=formula)
            want = serendipity_loop(recs, history, relevant, _genre_map(vectors), formula)
            assert got == pytest.approx(want, abs=1e-9)
            assert -1e-12 <= got <= 1.0 + 1e-12


def _all_cosines(recs, history, relevant, genres, formula=FORMULA_COMPLEMENT):
    """The earlier serendipity body, which took the history cosine of every
    recommended item and multiplied it by the relevance gate."""
    if not recs:
        return 0.0
    hist = [genre_vector(genres, h) for h in sorted(history)]
    H = np.array([v for v in hist if np.linalg.norm(v) > 0])
    if len(H) == 0:
        return 0.0
    contributions: list[float] = []
    for item in recs:
        v = genre_vector(genres, item)
        if np.linalg.norm(v) == 0:
            continue
        s = float(np.mean((H @ v) / (np.linalg.norm(H, axis=1) * np.linalg.norm(v))))
        u = s if formula == FORMULA_PAPER_LITERAL else 1.0 - s
        rel = 1.0 if item in relevant else 0.0
        contributions.append(u * rel)
    if not contributions:
        return 0.0
    return float(np.mean(contributions))


@st.composite
def _serendipity_inputs(draw):
    width = draw(st.integers(1, 5))
    vectors = {
        item: np.array(draw(st.lists(st.integers(0, 2), min_size=width, max_size=width)), float)
        for item in range(15)
    }
    items = st.integers(0, 14)
    history = draw(st.sets(items, min_size=1))
    recs = draw(st.lists(items, max_size=12, unique=True))
    relevant = draw(st.sets(items))
    formula = draw(st.sampled_from((FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL)))
    return recs, history, relevant, _genre_map(vectors), formula


@settings(max_examples=300, deadline=None)
@given(_serendipity_inputs())
def test_relevant_only_cosines_equal_all_cosines(inputs):
    # Irrelevant items add exactly 0.0, so skipping their cosines changes no bit.
    assert _one(*inputs) == _all_cosines(*inputs)
