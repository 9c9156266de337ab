"""Span recording for the traced pass, installed from outside the program.

Each wrapper replaces a public function at the module attribute its caller
looks up at call time (``noisegate.pipeline.mf_train``,
``noisegate.board.nf3_detect``, ``noisegate.board.nf3.SimilarityMatrix``, ...),
so the program itself is not edited.  A span is ``[name, start, end, parent]``
with the parent given as an index into the same list; the pass is single
threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("dataset", "board", "recsys", "ensemble", "signature", "evaluation", "pipeline")

ROOT = "pipeline.pass"
CLI = "pipeline.cli"
WRITE = "pipeline.artifact_write"
READ = "pipeline.artifact_read"


def _similarity_bytes(counts, args, kwargs, result):
    # Computed, not measured: the two dense U x I inputs plus the U x U result.
    n_users = len(result.user_ids)
    n_items = int(np.unique(args[0].items).size)
    counts["recsys.similarity_bytes"] += 8 * (2 * n_users * n_items + n_users * n_users)


def _mf_updates(counts, args, kwargs, result):
    counts["recsys.mf_updates"] += len(result.rmse_per_epoch) * len(args[0])


def _labeled_rows(counts, args, kwargs, result):
    counts["ensemble.labeled_rows"] += len(args[1])


def _uncertain_rows(counts, args, kwargs, result):
    counts["ensemble.uncertain_rows"] += len(args[1])


def _hits(counts, args, kwargs, result):
    counts["signature.hits"] += len(result)


def _ratings_removed(counts, args, kwargs, result):
    counts["signature.ratings_removed"] += len(args[0]) - len(result)


def _universe(counts, args, kwargs, result):
    counts["evaluation.universe_users"] += len(args[0])


def _mf_arm(args, call: int) -> str:
    # The evaluate stage trains the before arm first, then the after arm.
    return "recsys.mf_train_before" if call == 0 else "recsys.mf_train_after"


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call site."""
    import noisegate.board as board
    import noisegate.board.nf3 as nf3
    import noisegate.dataset as dataset
    import noisegate.pipeline as pipeline

    table = dataset.RatingsTable
    return [
        (pipeline, "load_ratings", "dataset.load", None),
        (pipeline, "load_genres", "dataset.load", None),
        (pipeline, "filter_min_activity", "dataset.filter", None),
        (pipeline, "split_train_test", "dataset.split", None),
        (table, "merged", "dataset.table_ops", None),
        (table, "without_keys", "dataset.table_ops", None),
        (pipeline, "run_board", "board.run_board", None),
        (board, "nf1_detect", "board.nf1", None),
        (board, "nf2_detect", "board.nf2", None),
        (board, "nf3_detect", "board.nf3", None),
        (board, "nf4_detect", "board.nf4", None),
        (nf3, "SimilarityMatrix", "recsys.similarity", _similarity_bytes),
        (nf3, "knn_predict", "recsys.knn_predict", None),
        (pipeline, "mf_train", _mf_arm, _mf_updates),
        (pipeline, "recommend_topk", "recsys.topk", None),
        (pipeline, "build_feature_matrix", "ensemble.features", None),
        (pipeline, "train_el", "ensemble.train", _labeled_rows),
        (pipeline, "classify_uncertain", "ensemble.classify", _uncertain_rows),
        (pipeline, "detect_optout", "signature.detect", _hits),
        (pipeline, "apply_signature_action", "signature.apply", _ratings_removed),
        (pipeline, "serendipity", "evaluation.serendipity", None),
        (pipeline, "ranking_metrics", "evaluation.metrics", None),
        (pipeline, "cluster_users", "evaluation.cluster", _universe),
        (pipeline, "delta_points", "evaluation.deltas", None),
        (pipeline, "write_delta_csv", "evaluation.artifacts", None),
        (pipeline, "write_scatter_svg", "evaluation.artifacts", None),
        (pipeline, "_stage", lambda args, _n: f"pipeline.{args[0]}", None),
        (pipeline, "_clean_corpus", "pipeline.clean", None),
        (pipeline, "dump_json", WRITE, None),
        (pipeline, "write_votes", WRITE, None),
        (pipeline, "write_features", WRITE, None),
        (pipeline, "write_classification", WRITE, None),
        (pipeline, "write_hits", WRITE, None),
        (pipeline, "save_model", WRITE, None),
        (table, "to_csv", WRITE, None),
        (pipeline, "_load_split", READ, None),
        (pipeline, "read_votes", READ, None),
        (pipeline, "read_features", READ, None),
        (pipeline, "read_classification", READ, None),
        (pipeline, "read_hits", READ, None),
        (pipeline, "read_json", READ, None),
    ]


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        """Return fn recording one span per call.

        name is a string or a function of (args, call index).
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls = [0]

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, calls[0])
            calls[0] += 1
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def check_nesting(spans: list[list], tolerance: float = 1e-6) -> list[str]:
    """Every child lies inside its parent, and children never add up to
    more than their parent's duration."""
    errors: list[str] = []
    child_total = [0.0] * len(spans)
    for k, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"span {k} {name} ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _ = spans[parent]
        if start < p_start - tolerance or end > p_end + tolerance:
            errors.append(f"span {k} {name} leaves its parent {p_name}")
        child_total[parent] += end - start
    for k, (name, start, end, _) in enumerate(spans):
        if child_total[k] > end - start + tolerance:
            errors.append(f"children of span {k} {name} exceed it")
    return errors


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; per layer:
    self seconds.  A span's self time is its duration minus its children's."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    by_name: dict[str, dict[str, float]] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for k, (name, start, end, _) in enumerate(spans):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self_s = (end - start) - child_total[k]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        layers[name.split(".", 1)[0]] += self_s
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    return {"spans": by_name, "layer_self_s": layers, "root_s": roots}
