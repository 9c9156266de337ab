"""End-to-end orchestration: config, noise injection, staging, reports."""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import noisegate.ensemble
import noisegate.pipeline as pipeline
from noisegate.board import CONSENSUS
from noisegate.board.verdict import DETECTOR_IDS, Consensus
from noisegate.cli import build_parser
from noisegate.dataset import Scale, load_ratings
from noisegate.ensemble import read_classification
from noisegate.pipeline import (
    STAGES,
    ConfigError,
    DataError,
    GroundTruthMask,
    NoiseKind,
    PipelineConfig,
    RunPaths,
    StageError,
    _stage,
    config_from_dict,
    config_hash,
    inject_noise,
    load_config,
    read_mask,
    reports_equal,
    run_baseline,
    run_framework,
    run_paths,
    run_stage,
    split_three,
    stage_ingest,
    strip_timestamp,
    write_mask,
)
from noisegate.evaluation.deltas import Quadrant

from . import oracles
from .conftest import MINI_DIR, make_table


def _fast_config(out_dir, run_id=None, **overrides):
    values = dict(
        ratings_path=str(MINI_DIR / "ratings.csv"),
        movies_path=str(MINI_DIR / "movies.csv"),
        out_dir=str(out_dir),
        min_activity=5,
        nf3_k=10,
        nf3_significance_cap=10,
        rf_trees=15,
        rf_max_depth=6,
        gbt_rounds=15,
        gbt_depth=2,
        ressel_bags=6,
        ressel_max_rounds=3,
        eif_trees=30,
        eif_sample_size=64,
        mf_factors=8,
        mf_epochs=8,
        clusters_k=5,
        top_k=5,
        seed=7,
    )
    if run_id is not None:
        values["run_id"] = run_id
    values.update(overrides)
    return config_from_dict(values)


@pytest.fixture(scope="module")
def framework_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("framework")
    cfg = _fast_config(out, run_id="full")
    return cfg, run_framework(cfg)


# -- configuration -------------------------------------------------------


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys.*typo_key"):
        config_from_dict({"ratings_path": "r.csv", "typo_key": 1})


def test_config_coercion_from_strings():
    cfg = config_from_dict(
        {
            "ratings_path": "r.csv",
            "movies_path": "m.csv",
            "train_fraction": "0.7",
            "detect_fraction": "0.15",
            "eval_fraction": "0.15",
            "nf3_k": "35",
            "rf_feature_subset": "none",
            "run_id": "",
        }
    )
    assert cfg.train_fraction == 0.7
    assert cfg.nf3_k == 35
    assert cfg.rf_feature_subset is None
    assert cfg.run_id is None


def test_config_bad_values_rejected():
    base = {"ratings_path": "r.csv", "movies_path": "m.csv"}
    with pytest.raises(ConfigError, match="cannot read"):
        config_from_dict({**base, "nf3_k": "many"})
    with pytest.raises(ConfigError, match="cannot read"):
        config_from_dict({**base, "mf_epochs": 2.5})
    with pytest.raises(ConfigError, match="sum to 1"):
        config_from_dict({**base, "train_fraction": 0.9})
    with pytest.raises(ConfigError, match="ensemble_variant"):
        config_from_dict({**base, "ensemble_variant": "EL9"})
    with pytest.raises(ConfigError, match="signature_action"):
        config_from_dict({**base, "signature_action": "shadowban"})
    with pytest.raises(ConfigError, match="plane_b must be a finite number"):
        config_from_dict({**base, "plane_b": float("inf")})
    with pytest.raises(ConfigError, match="ratings_path"):
        config_from_dict({})


def test_config_keeps_the_zero_values_the_learners_define():
    # lr 0 freezes GBT at the prior, reg 0 is the unregularized ALS solve
    # and 0 rounds is plain bagging; the bounds are the feature count's.
    config_from_dict({
        "ratings_path": "r.csv", "movies_path": "m.csv", "gbt_lr": 0, "mf_reg": 0,
        "ressel_max_rounds": 0, "rf_feature_subset": 19, "eif_extension_level": 18,
        "nf1_majority": 0,
    })


def test_config_hash_ignores_output_location():
    a = PipelineConfig(ratings_path="r.csv", out_dir="x", run_id="1")
    b = PipelineConfig(ratings_path="r.csv", out_dir="y", run_id="2")
    c = PipelineConfig(ratings_path="r.csv", seed=99)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


# Every config key with its default.  A change here changes the CLI flags,
# the JSON keys and the config hash of existing run directories.
_CONFIG_DEFAULTS = [
    ("activity_by", "user"), ("clusters_k", 20), ("detect_fraction", 0.15),
    ("eif_extension_level", None), ("eif_sample_size", 256), ("eif_score_cut", 0.8),
    ("eif_trees", 100), ("ensemble_variant", "EL3"), ("eval_fraction", 0.15),
    ("gbt_depth", 3), ("gbt_lr", 0.1), ("gbt_rounds", 100), ("mask_path", None),
    ("mf_epochs", 20), ("mf_factors", 16), ("mf_reg", 0.02), ("min_activity", 50),
    ("movies_path", ""), ("nf1_cut_high", 4.0), ("nf1_cut_low", 2.5), ("nf1_majority", 0.5),
    ("nf2_coherence_cut", 0.8), ("nf2_rnd_cut", 0.5), ("nf2_theta_heavy_medium", 0.075),
    ("nf2_theta_light", 0.05), ("nf3_k", 35), ("nf3_min_overlap", 2),
    ("nf3_significance_cap", 50), ("nf3_th", 0.05), ("nf4_delta1", 1.0), ("nf4_delta2", 0.25),
    ("out_dir", "out"), ("percent_basis", "users"), ("plane_a", 0.07), ("plane_b", 0.17),
    ("ratings_path", ""), ("relevance_threshold", 3.5), ("ressel_add_per_round", 10),
    ("ressel_bags", 25), ("ressel_max_rounds", 20), ("rf_feature_subset", None),
    ("rf_max_depth", 8), ("rf_trees", 100), ("run_id", None), ("scale_max", 5.0),
    ("scale_min", 0.5), ("seed", 0), ("serendipity_formula", "complement"),
    ("signature_action", "remove_user"), ("signature_denominator", "last_day_activity"),
    ("signature_threshold", 0.5), ("top_k", 10), ("train_fraction", 0.7),
]


def test_config_surface_is_frozen():
    fields = dataclasses.fields(PipelineConfig)
    assert sorted((f.name, f.default) for f in fields) == _CONFIG_DEFAULTS
    assert config_hash(PipelineConfig(ratings_path="r.csv", movies_path="m.csv")) == (
        "6847c3bfbd8ecd2a"
    )
    keys = [f.name for f in fields]
    (commands,) = (
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command in [*STAGES, "run", "baseline"]:
        flags = [(a.dest, a.option_strings) for a in commands[command]._actions if a.dest in keys]
        assert sorted(flags) == sorted((k, ["--" + k.replace("_", "-")]) for k in keys), command


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


# -- noise injection -----------------------------------------------------


def _inject_table(n=1000, seed=4):
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(n):
        u = j // 20 + 1
        i = j % 20 + 1 + 100 * (j // 20 % 2)
        rows.append((u, i, float(rng.choice([1.0, 2.5, 4.0, 5.0])), j))
    return make_table(rows)


def test_inject_rate_zero_is_identity():
    table = _inject_table(200)
    out, mask = inject_noise(table, 0.0, NoiseKind.UNIFORM_REPLACE, seed=1)
    assert mask.keys == frozenset()
    assert oracles.ratings(out) == oracles.ratings(table)


def test_inject_flip_endpoint():
    rows = [(1, i, 5.0, i) for i in range(1, 11)]
    out, mask = inject_noise(make_table(rows), 0.5, NoiseKind.FLIP, seed=2)
    assert len(mask.keys) == 5
    flipped = dict(((u, i), v) for u, i, v, _ in oracles.ratings(out))
    for key in mask.keys:
        assert flipped[key] == 0.5


def test_inject_exact_count_and_mask_consistency():
    table = _inject_table(1000)
    out, mask = inject_noise(table, 0.1, NoiseKind.UNIFORM_REPLACE, seed=3)
    assert len(mask.keys) == 100
    before = {(u, i): v for u, i, v, _ in oracles.ratings(table)}
    after = {(u, i): v for u, i, v, _ in oracles.ratings(out)}
    changed = {k for k in before if before[k] != after[k]}
    assert changed == set(mask.keys)
    grid = set(table.scale.grid(0.5).tolist())
    for k in mask.keys:
        assert after[k] in grid and after[k] != before[k]
    # timestamps and untouched rows identical
    assert [r[3] for r in oracles.ratings(out)] == [r[3] for r in oracles.ratings(table)]


def test_inject_optout_burst_hits_whole_last_day():
    rows = []
    for u in range(1, 11):
        for j in range(8):
            rows.append((u, j + 1, 4.0, j * 86400))  # one rating per day
        rows.append((u, 9, 4.0, 7 * 86400 + 50))  # second rating on the last day
    table = make_table(rows)
    out, mask = inject_noise(table, 0.2, NoiseKind.OPTOUT_BURST, seed=5)
    users = {u for u, _ in mask.keys}
    assert len(users) == 2
    # each selected user's full last day (items 8 and 9) is in the mask
    for u in users:
        assert {(u, 8), (u, 9)} <= set(mask.keys)
    assert len(mask.keys) == 4
    before = {(u, i): v for u, i, v, _ in oracles.ratings(table)}
    after = {(u, i): v for u, i, v, _ in oracles.ratings(out)}
    for k in mask.keys:
        assert after[k] != before[k]


def test_inject_deterministic_and_seed_sensitive():
    table = _inject_table(400)
    a1, m1 = inject_noise(table, 0.1, NoiseKind.UNIFORM_REPLACE, seed=11)
    a2, m2 = inject_noise(table, 0.1, NoiseKind.UNIFORM_REPLACE, seed=11)
    b, m3 = inject_noise(table, 0.1, NoiseKind.UNIFORM_REPLACE, seed=12)
    assert oracles.ratings(a1) == oracles.ratings(a2) and m1 == m2
    assert m1.keys != m3.keys or oracles.ratings(a1) != oracles.ratings(b)


def test_inject_rate_bounds():
    table = _inject_table(50)
    with pytest.raises(ValueError, match="rate"):
        inject_noise(table, 0.6, NoiseKind.FLIP)
    with pytest.raises(ValueError, match="rate"):
        inject_noise(table, -0.1, NoiseKind.FLIP)


def test_mask_roundtrip(tmp_path):
    table = _inject_table(300)
    _, mask = inject_noise(table, 0.2, NoiseKind.FLIP, seed=9)
    path = tmp_path / "mask.json"
    write_mask(mask, path)
    back = read_mask(path)
    assert back == mask


# -- splitting -----------------------------------------------------------


def test_split_three_partitions(planted_small):
    table, _ = planted_small
    train, detect, eval_t = split_three(table, (0.7, 0.15, 0.15), seed=3)
    keys = lambda t: {(u, i) for u, i, _, _ in oracles.ratings(t)}
    kt, kd, ke = keys(train), keys(detect), keys(eval_t)
    assert kt | kd | ke == keys(table)
    assert not (kt & kd) and not (kt & ke) and not (kd & ke)
    n = len(table)
    assert len(train) / n == pytest.approx(0.7, abs=0.05)
    assert len(eval_t) / n == pytest.approx(0.15, abs=0.05)
    again = split_three(table, (0.7, 0.15, 0.15), seed=3)
    assert [oracles.ratings(t) for t in again] == [oracles.ratings(train), oracles.ratings(detect), oracles.ratings(eval_t)]


# -- stage error wrapper -------------------------------------------------


def test_stage_wraps_unexpected_errors():
    with pytest.raises(StageError, match="stage 'boom' failed"):
        _stage("boom", lambda: 1 / 0)
    # typed errors pass through untouched
    def _raise_config():
        raise ConfigError("x")
    with pytest.raises(ConfigError):
        _stage("cfg", _raise_config)


# -- full framework run --------------------------------------------------


def test_run_artifacts_exist(framework_run):
    cfg, result = framework_run
    p = result.paths
    for path in (
        p.ingest, p.train_csv, p.detect_csv, p.eval_csv, p.votes,
        p.board_json, p.features, p.ensemble_csv, p.signature_csv, p.report,
        p.before_model, p.after_model,
    ):
        assert path.exists(), path
    for pair in result.reports:
        assert p.deltas(pair).exists()
        assert p.scatter(pair).exists()
    # the board's venn counts live in board.json only
    assert not (p.base / "venn.json").exists()


def test_run_report_is_complete(framework_run):
    cfg, result = framework_run
    r = result.report_dict
    assert r["mode"] == "run"
    assert r["config_hash"] == config_hash(cfg)
    assert set(r["board"]["consensus"]) == {"noisy", "clean", "uncertain"}
    assert set(r["evaluation"]["pairs"]) == {
        "serendipity-ndcg", "serendipity-precision", "serendipity-recall", "serendipity-f1",
    }
    # venn regions partition the detect split
    assert sum(r["board"]["venn"].values()) == r["counts"]["detect"]
    # report on disk matches the in-memory dict modulo the timestamp
    on_disk = json.loads(result.paths.report.read_text())
    assert strip_timestamp(on_disk) == json.loads(
        json.dumps(strip_timestamp(result.report_dict), default=str)
    ) or strip_timestamp(on_disk)["config_hash"] == r["config_hash"]


def test_noise_free_dataset_flags_little(framework_run):
    # planted data has no natural noise: unanimous Noisy should be rare
    cfg, result = framework_run
    r = result.report_dict
    noisy = r["board"]["consensus"]["noisy"]
    assert noisy <= 0.05 * r["counts"]["detect"]
    assert 0.0 <= result.reports["serendipity-ndcg"].percent_positive <= 100.0


def test_labels_cover_detect_split_without_uncertainty(framework_run):
    cfg, result = framework_run
    assert result.noisy.dtype == bool and result.noisy.shape == (len(result.votes),)
    for flag, code in zip(result.noisy.tolist(), result.votes.consensus.tolist()):
        if CONSENSUS[code] is Consensus.NOISY:
            assert flag
        elif CONSENSUS[code] is Consensus.CLEAN:
            assert not flag
    # the Uncertain rows carry the ensemble's labels, in vote-row order
    uncertain = result.votes.where(Consensus.UNCERTAIN)
    users, items, classified, _ = read_classification(
        result.paths.ensemble_csv, cfg.ensemble_variant
    )
    assert np.array_equal(users, result.votes.users[uncertain])
    assert np.array_equal(items, result.votes.items[uncertain])
    assert np.array_equal(result.noisy[uncertain], classified)


def test_removal_soundness(framework_run):
    cfg, result = framework_run
    train = load_ratings(result.paths.train_csv, cfg.scale())
    detect = load_ratings(result.paths.detect_csv, cfg.scale())
    eval_t = load_ratings(result.paths.eval_csv, cfg.scale())
    corpus = train.merged(detect)
    noisy = set(result.votes.keys(result.noisy))
    flagged = set(result.hits.users.tolist())
    keep = [k for k, key in enumerate(oracles.keys(corpus)) if key not in noisy]
    expected = [k for k in keep if int(corpus.users[k]) not in flagged]
    rm = result.report_dict["removal"]
    assert rm["corpus_size"] == len(corpus)
    assert rm["cleaned_size"] == len(expected)
    assert rm["noisy_ratings_removed"] == len(corpus) - len(keep)
    # the held-out fold is never touched by cleaning
    assert result.report_dict["counts"]["eval"] == len(eval_t)


def test_rerun_reports_byte_identical(framework_run, tmp_path):
    cfg, result = framework_run
    cfg2 = _fast_config(tmp_path, run_id="replay")
    result2 = run_framework(cfg2)
    assert reports_equal(result.paths.report, result2.paths.report)


def test_gbt_run_matches_per_round_refit(framework_run, tmp_path, monkeypatch):
    # The same EL3 run with train_gbt swapped for the loop that refits every
    # round's tree from scratch writes the same labels and report.
    cfg, result = framework_run
    assert cfg.ensemble_variant == "EL3"
    calls = []

    def refit(*args, **kwargs):
        calls.append(args)
        return oracles.train_gbt_refit(*args, **kwargs)

    monkeypatch.setattr(noisegate.ensemble, "train_gbt", refit)
    oracle_run = run_framework(_fast_config(tmp_path, run_id="refit"))
    assert len(calls) == 1 and calls[0][1].sum() > 0
    assert result.paths.ensemble_csv.read_bytes() == oracle_run.paths.ensemble_csv.read_bytes()
    assert reports_equal(result.paths.report, oracle_run.paths.report)


def test_el5_consumes_only_uncertain(tmp_path):
    cfg = _fast_config(tmp_path, run_id="el5", ensemble_variant="EL5")
    result = run_framework(cfg)
    r = result.report_dict
    assert r["ensemble"]["variant"] == "EL5"
    uncertain = r["board"]["consensus"]["uncertain"]
    assert r["ensemble"]["uncertain_total"] == uncertain
    assert (
        r["ensemble"]["classified_noisy"] + r["ensemble"]["classified_clean"] == uncertain
    )


def test_ground_truth_section_with_mask(tmp_path):
    table = load_ratings(MINI_DIR / "ratings.csv", Scale())
    noisy, mask = inject_noise(table, 0.1, NoiseKind.UNIFORM_REPLACE, seed=21)
    data = tmp_path / "data"
    data.mkdir()
    noisy.to_csv(data / "ratings.csv")
    write_mask(mask, data / "mask.json")
    cfg = _fast_config(
        tmp_path,
        run_id="masked",
        ratings_path=str(data / "ratings.csv"),
        mask_path=str(data / "mask.json"),
    )
    result = run_framework(cfg)
    gt = result.report_dict["ground_truth"]
    assert gt["kind"] == "uniform"
    assert gt["mask_size"] == len(mask.keys)
    assert 0 <= gt["positives_in_detect"] <= len(mask.keys)
    for det in ("NF1", "NF2", "NF3", "NF4"):
        assert 0.0 <= gt["detectors"][det]["precision"] <= 1.0
        assert 0.0 <= gt["detectors"][det]["recall"] <= 1.0
    assert set(gt["consensus"]) == {"flagged", "true_positives", "precision", "recall"}
    # brute-force recount over the keys of the detect split
    keys = result.votes.keys()
    positives = set(mask.keys) & set(keys)
    assert gt["positives_in_detect"] == len(positives)
    flagged_by = {
        det: {key for key, f in zip(keys, result.votes.noisy[:, d].tolist()) if f}
        for d, det in enumerate(DETECTOR_IDS)
    }
    flagged_by["consensus"] = {
        key for key, c in zip(keys, result.votes.consensus.tolist())
        if CONSENSUS[c] is Consensus.NOISY
    }
    flagged_by["final_labels"] = set(result.votes.keys(result.noisy))
    for name, flagged in flagged_by.items():
        section = gt["detectors"][name] if name in DETECTOR_IDS else gt[name]
        tp = len(flagged & positives)
        assert section == {
            "flagged": len(flagged),
            "true_positives": tp,
            "precision": tp / len(flagged) if flagged else 0.0,
            "recall": tp / len(positives) if positives else 0.0,
        }


# -- baselines -----------------------------------------------------------


def _assert_baseline_classifies_and_signs_nothing(result):
    """A baseline run writes no classification and no signature file, and
    its report says that nothing was classified or flagged."""
    r = result.report_dict
    assert not result.paths.ensemble_csv.exists()
    assert not result.paths.signature_csv.exists()
    assert r["ensemble"] == {
        "variant": None, "uncertain_total": 0, "classified_noisy": 0, "classified_clean": 0,
    }
    assert r["signature"]["flagged_users"] == [] and r["signature"]["count"] == 0
    assert len(result.hits) == 0


def test_inert_baseline_all_deltas_zero(tmp_path):
    # NF3 with an unreachable threshold removes nothing, so before == after
    cfg = _fast_config(tmp_path, run_id="inert", nf3_th=1.0)
    result = run_baseline(cfg, "NF3")
    r = result.report_dict
    assert r["mode"] == "baseline" and r["detector"] == "NF3"
    assert r["removal"]["cleaned_size"] == r["removal"]["corpus_size"]
    _assert_baseline_classifies_and_signs_nothing(result)
    report = result.reports["serendipity-ndcg"]
    assert report.percent_positive == 0.0
    assert all(p.quadrant is Quadrant.ORIGIN for p in oracles.delta_records(report))


def test_baseline_removes_exactly_detector_verdicts(tmp_path):
    cfg = _fast_config(tmp_path, run_id="nf1-base")
    result = run_baseline(cfg, "NF1")
    r = result.report_dict
    assert r["removal"]["noisy_ratings_removed"] == r["board"]["per_detector_noisy"]["NF1"]
    assert r["removal"]["signature_ratings_removed"] == 0
    _assert_baseline_classifies_and_signs_nothing(result)


def test_unknown_baseline_detector_rejected(tmp_path):
    cfg = _fast_config(tmp_path)
    with pytest.raises(ConfigError, match="detector"):
        run_baseline(cfg, "NF9")


# -- staged CLI path == in-memory path ------------------------------------


def _artifact_files(base):
    return {p.relative_to(base): p for p in base.rglob("*") if p.is_file()}


def test_staged_run_matches_end_to_end(framework_run, tmp_path):
    cfg_full, result = framework_run
    cfg = _fast_config(tmp_path, run_id="staged")
    paths = run_paths(cfg)
    for name in ("ingest", "detect", "ensemble", "signature", "evaluate"):
        run_stage(name, cfg, paths)
    assert reports_equal(result.paths.report, paths.report)
    full, staged = _artifact_files(result.paths.base), _artifact_files(paths.base)
    assert sorted(full) == sorted(staged)
    for name, path in full.items():
        if name != paths.report.relative_to(paths.base):
            assert path.read_bytes() == staged[name].read_bytes(), name


def test_stage_table_reads_only_earlier_writes():
    paths = RunPaths("out", "run")
    written = set()
    for name, stage in STAGES.items():
        assert set(stage.reads) <= written, name
        assert not set(stage.writes) & written, name
        assert all(hasattr(paths, attr) for attr in stage.reads + stage.writes), name
        written |= set(stage.writes)
    assert "manifest" in STAGES["ingest"].writes


def test_stage_resume_requires_artifacts(tmp_path):
    """Each resuming stage, run after every stage but the one before it,
    names that one; the table lists the stages in the order they run."""
    cfg = _fast_config(tmp_path, run_id="cold")
    paths = run_paths(cfg)
    names = ["ingest", "detect", "ensemble", "signature", "evaluate"]
    assert list(STAGES) == names
    for producer, stage in zip(names, names[1:]):
        with pytest.raises(DataError, match=f"run the {producer} stage first"):
            run_stage(stage, cfg, paths)
        run_stage(producer, cfg, paths)


def test_each_stage_reads_only_its_declared_artifacts(tmp_path, monkeypatch):
    """The files a stage parses, each through _read and once: the artifacts
    STAGES declares, the manifest of a resuming stage, and the configured
    input files the stage uses (the digests of the inputs are not parsed)."""
    mask = tmp_path / "mask.json"
    write_mask(GroundTruthMask(NoiseKind.FLIP, frozenset({(1, 38)}), 0.1, 0), mask)
    cfg = _fast_config(tmp_path, run_id="spied", mask_path=str(mask))
    paths = run_paths(cfg)
    reads: dict[str, list[Path]] = {}  # by stage, in run order
    read, run_one = pipeline._read, pipeline.run_stage

    def spy_read(reader, path, *args):
        reads[list(reads)[-1]].append(Path(path))
        return read(reader, path, *args)

    def spy_stage(name, *args):
        reads[name] = []
        return run_one(name, *args)

    monkeypatch.setattr(pipeline, "_read", spy_read)
    monkeypatch.setattr(pipeline, "run_stage", spy_stage)
    run_framework(cfg)
    inputs = {
        "ingest": ("ratings_path", "movies_path", "mask_path"),
        "detect": ("movies_path",),
        "evaluate": ("movies_path", "mask_path"),
    }
    assert list(reads) == list(STAGES)
    for name, stage in STAGES.items():
        declared = [*stage.reads, *(("manifest",) if stage.reads else ())]
        want = {getattr(paths, a) for a in declared}
        want |= {Path(getattr(cfg, key)) for key in inputs.get(name, ())}
        assert set(reads[name]) == want, name
        assert len(reads[name]) == len(want), name


def test_missing_ratings_is_data_error(tmp_path):
    cfg = _fast_config(tmp_path, ratings_path=str(tmp_path / "nope.csv"))
    with pytest.raises(DataError, match="not found"):
        stage_ingest(cfg)
