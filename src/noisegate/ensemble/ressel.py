"""Bagged self-training with out-of-bag early stopping.

Each bag bootstraps the labeled set, trains a base classifier, then
repeatedly pseudo-labels its most confident unlabeled points and retrains.
A bag stops growing the moment its out-of-bag error would increase, so the
accepted-step OOB sequence is non-increasing by construction.  With no
unlabeled data no round runs, and the procedure is exactly plain bagging.
"""

from __future__ import annotations

import logging

import numpy as np

from ..seeding import derive_seed
from .forest import majority_vote
from .learners import GaussianNB, KnnClassifier, LogisticRegression, MarginClassifier
from .trees import DecisionTree

logger = logging.getLogger("noisegate.ensemble.ressel")

DEFAULT_BAGS = 25
DEFAULT_ADD_PER_ROUND = 10
DEFAULT_MAX_ROUNDS = 20

# Pool rows a round predicts per read before it checks whether its batch
# is settled.
_SCAN_ROWS = 512


def base_roster(variant: str) -> list:
    """The variant's base classifiers, as seed -> classifier factories."""
    if variant == "EL4_1":
        return [
            lambda s: _SqrtTree(max_depth=4, seed=s),
            lambda s: LogisticRegression(reg=1e-4),
        ]
    if variant == "EL4_2":
        return [
            lambda s: _SqrtTree(max_depth=4, seed=s),
            lambda s: LogisticRegression(reg=1e-4),
            lambda s: GaussianNB(),
            lambda s: MarginClassifier(),
            lambda s: KnnClassifier(k=10),
        ]
    raise ValueError(f"unknown base roster {variant!r}")


class _SqrtTree(DecisionTree):
    """Shallow random tree: depth-limited, sqrt(d) features per split."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        self.feature_subset = max(1, int(np.sqrt(np.asarray(X).shape[1])))
        return super().fit(X, y)


class ResselModel:
    def __init__(self, classifiers: list, oob_sequences: list[list[float]]):
        self.classifiers = classifiers
        self.oob_sequences = oob_sequences

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Majority labels and the share of bags voting noisy, from one vote
        of the bags."""
        return majority_vote(self.classifiers, X)


def _oob_error(clf, X: np.ndarray, y: np.ndarray, oob: np.ndarray) -> float:
    pred = clf.predict(X[oob])
    return float(np.mean(pred != y[oob]))


def _confident_batch(
    clf, X_unlabeled: np.ndarray, pool: np.ndarray, take: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """(positions into pool, predicted labels) of a round's batch: for each
    class c, the take[c] rows predicted c with the highest confidence
    |p - 0.5|, ties to the lowest position; positions ascend.

    Confidence cannot exceed 0.5, so once each class has take[c] rows at
    exactly 0.5, no row further on can enter the batch.  The pool is
    therefore predicted _SCAN_ROWS rows at a time from its start, and the
    scan stops there.  Every learner scores a row alone, so the rows read
    get the bits a whole-pool prediction would give them.
    """
    parts = []
    sure = np.zeros(2, dtype=np.int64)
    for start in range(0, len(pool), _SCAN_ROWS):
        p = clf.predict_proba(X_unlabeled[pool[start : start + _SCAN_ROWS]])
        parts.append(p)
        sure += np.bincount(p[np.abs(p - 0.5) == 0.5] > 0.5, minlength=2)
        if sure[0] >= take[0] and sure[1] >= take[1]:
            break
    proba = np.concatenate(parts)
    pred = (proba > 0.5).astype(np.int64)
    conf = np.abs(proba - 0.5)
    chosen = []
    for c in (0, 1):
        cand = np.flatnonzero(pred == c)
        chosen.append(cand[np.lexsort((cand, -conf[cand]))[: take[c]]])
    batch = np.sort(np.concatenate(chosen))
    return batch, pred[batch]


def train_ressel(
    X_labeled: np.ndarray,
    y: np.ndarray,
    X_unlabeled: np.ndarray,
    variant: str = "EL4_1",
    bags: int = DEFAULT_BAGS,
    add_per_round: int = DEFAULT_ADD_PER_ROUND,
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> ResselModel:
    """Self-training bag ensemble with OOB-guarded growth.

    Per round a bag adds its add_per_round most confident unlabeled points,
    class-balanced by predicted label; the candidate step is kept only when
    the bag's OOB error does not increase.  max_rounds caps the number of
    self-training rounds per bag.  A round reads the pool only up to the
    point where its batch is settled (_confident_batch), which picks the
    batch a whole-pool prediction would.
    """
    X_labeled = np.asarray(X_labeled, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
    roster = base_roster(variant)
    n = len(y)
    classifiers = []
    sequences: list[list[float]] = []
    n_half = add_per_round // 2
    take = (n_half, add_per_round - n_half)
    for b in range(bags):
        rng = np.random.default_rng(derive_seed(seed, b))
        idx = rng.integers(0, n, size=n)
        clf_seed = derive_seed(seed, b, 1)
        factory = roster[b % len(roster)]
        clf = factory(clf_seed).fit(X_labeled[idx], y[idx])
        oob = np.setdiff1d(np.arange(n), idx)
        if len(oob) == 0:
            logger.warning("bag %d has no OOB samples; skipping self-training", b)
            classifiers.append(clf)
            sequences.append([])
            continue
        e_prev = _oob_error(clf, X_labeled, y, oob)
        seq = [e_prev]
        pool = np.arange(len(X_unlabeled))
        accepted_X: list[np.ndarray] = []
        accepted_y: list[np.ndarray] = []
        rounds = 0
        while len(pool) and rounds < max_rounds:
            rounds += 1
            batch, by = _confident_batch(clf, X_unlabeled, pool, take)
            if not len(batch):
                break
            bx = X_unlabeled[pool[batch]]
            trial_X = np.vstack([X_labeled[idx]] + accepted_X + [bx])
            trial_y = np.concatenate([y[idx]] + accepted_y + [by])
            clf2 = factory(clf_seed).fit(trial_X, trial_y)
            e_new = _oob_error(clf2, X_labeled, y, oob)
            if e_new > e_prev:
                break
            clf = clf2
            e_prev = e_new
            seq.append(e_new)
            accepted_X.append(bx)
            accepted_y.append(by)
            pool = np.delete(pool, batch)
        classifiers.append(clf)
        sequences.append(seq)
    return ResselModel(classifiers, sequences)
