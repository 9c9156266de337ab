"""The benchmark's span wrappers still time evaluation.

perfbench/spans.py wraps program functions by module attribute name,
counts evaluated users from the first argument of cluster_users, and
counts signature hits and removed ratings from what detect_optout and
apply_signature_action return, so a renamed function or a changed call or
return shape would silently empty a per-layer metric.  This runs the
bundled mini dataset under the benchmark's Tracer, which it imports
read-only.
"""

from __future__ import annotations

from perfbench.spans import Tracer, _targets

from noisegate.pipeline import STAGES, config_from_dict, run_framework

from .conftest import MINI_DIR


def test_benchmark_spans_cover_evaluation(tmp_path):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in _targets()
               if attr not in owner.__dict__]
    assert missing == []
    cfg = config_from_dict({
        "ratings_path": str(MINI_DIR / "ratings.csv"),
        "movies_path": str(MINI_DIR / "movies.csv"),
        "out_dir": str(tmp_path),
        "run_id": "traced",
        "min_activity": 5,
        "clusters_k": 5,
        "top_k": 5,
        "seed": 7,
    })
    tracer = Tracer()
    tracer.install()
    try:
        result = run_framework(cfg)
    finally:
        tracer.uninstall()
    universe = result.report_dict["evaluation"]["universe_users"]
    assert tracer.counts["evaluation.universe_users"] == universe > 0
    # the signature counters read the hits and the table that Layer 3 returns
    assert tracer.counts["signature.hits"] == result.report_dict["signature"]["count"] > 0
    removed = result.report_dict["removal"]["signature_ratings_removed"]
    assert tracer.counts["signature.ratings_removed"] == removed > 0
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    # each is called once per arm
    for name in ("recsys.topk", "evaluation.metrics", "evaluation.serendipity"):
        assert calls.get(name) == 2, name
    # the stage driver looks _stage and every reader up when it calls them
    for stage in ("ingest", "split", "board", "ensemble", "signature", "evaluate"):
        assert calls.get(f"pipeline.{stage}") == 1, stage
    resumed = [stage for stage in STAGES.values() if stage.reads]
    assert calls.get("pipeline.artifact_read") == sum(len(s.reads) + 1 for s in resumed)
    assert calls.get("pipeline.artifact_write", 0) > 0
