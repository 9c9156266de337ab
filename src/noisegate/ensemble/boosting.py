"""Gradient-boosted trees on the logistic loss."""

from __future__ import annotations

import numpy as np

from .trees import RegressionTree, root_plan


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class GbtModel:
    """Additive model: prior log-odds plus lr-scaled Newton-leaf trees.

    Class is the sign of the raw score; probabilities go through a sigmoid.
    """

    def __init__(self, base_score: float, trees: list[RegressionTree], lr: float,
                 loss_curve: list[float]):
        self.base_score = base_score
        self.trees = trees
        self.lr = lr
        self.loss_curve = loss_curve

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        score = np.full(len(X), self.base_score)
        for tree in self.trees:
            score += self.lr * tree.predict(X)
        return score

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The raw score's sign as labels, and its sigmoid, from one pass of
        the trees."""
        score = self.decision_function(X)
        return (score > 0.0).astype(np.int64), _sigmoid(score)


def train_gbt(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int = 100,
    depth: int = 3,
    lr: float = 0.1,
) -> GbtModel:
    """Boost depth-limited regression trees on logistic-loss gradients.

    Round t fits a tree to the residual y - p and steps each leaf by the
    Newton estimate sum(g)/sum(p(1-p)).  Every round grows its tree from one
    root plan of X, sorted once.  A node's plan holds the sorted rows of
    only the features not constant in the node, and keeps the child plans
    of the split the latest tree made there: a round builds plans only
    below a split the previous tree did not make, each round drops the
    plans its tree did not visit, and all are freed on return.  The leaves
    write the round's predictions on X.  Each round's sigmoid of the score
    gives both that round's loss and the next round's gradients, the same
    array either would compute.  A node whose gradients are all one value
    is priced from one sequence (see trees).  With rounds=0 the model is
    the prior log-odds, so it predicts the majority class; lr=0 freezes the
    score at that prior.  Training log-loss is recorded per round.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p1 = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = float(np.log(p1 / (1.0 - p1)))
    score = np.full(len(y), base)
    plan = root_plan(X)
    fitted = np.empty(len(y))
    trees: list[RegressionTree] = []
    p = _sigmoid(score)
    losses: list[float] = [_log_loss(y, p)]
    for _ in range(rounds):
        g = y - p
        h = p * (1.0 - p)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise RuntimeError(f"non-finite gradient at round {len(trees)}")
        trees.append(RegressionTree(max_depth=depth).grow(X, g, h, plan, fitted))
        score = score + lr * fitted
        p = _sigmoid(score)
        losses.append(_log_loss(y, p))
    return GbtModel(base, trees, lr, losses)
