"""End-to-end orchestration.

ingest -> split -> detector board -> ensemble arbitration -> opt-out
signature -> removal -> retrain -> before/after evaluation.  Every stage
persists its output under the run directory, so any stage can be re-run
from the artifacts of the previous one and still produce the same final
report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import time
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .board import CONSENSUS, BoardConfig, Votes, read_votes, run_board, venn_counts, write_votes
from .board.verdict import DETECTOR_IDS, Consensus, Verdict
from .dataset import (
    GenreMap,
    RatingsTable,
    Scale,
    SplitSpec,
    filter_min_activity,
    load_genres,
    load_ratings,
    run_starts,
    split_train_test,
)
from .ensemble import (
    VARIANTS,
    EnsembleConfig,
    classify_uncertain,
    read_classification,
    train_el,
    write_classification,
)
from .ensemble.features import FEATURE_NAMES, build_feature_matrix, read_features, write_features
from .evaluation import (
    ACCURACY_METRICS,
    BASIS_RATINGS,
    BASIS_USERS,
    QUADRANTS,
    ArmEval,
    DeltaReport,
    cluster_users,
    critical_groups,
    delta_points,
    global_means,
    ranking_metrics,
    serendipity,
    write_delta_csv,
    write_scatter_svg,
)
from .evaluation.serendipity import FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL
from .ioutil import dump_json, read_json
# save_model is unused here but stays importable: perfbench/spans.py wraps pipeline.save_model.
from .recsys import MfModel, mf_train, recommend_topk, save_model  # noqa: F401
from .seeding import derive_seed
from .signature import (
    DENOMINATOR_GLOBAL_NOISE,
    DENOMINATOR_LAST_DAY,
    Hits,
    SignatureAction,
    apply_signature_action,
    detect_optout,
    read_hits,
    write_hits,
)

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration (exit code 2)."""


class DataError(Exception):
    """Unreadable or unusable data (exit code 3)."""


class StageError(Exception):
    """A pipeline stage failed (exit code 4); carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# Seed salts: each consumer of randomness derives its own stream from the
# one configured seed, so stages stay independent and reproducible.
_SALT_SPLIT_EVAL = 11
_SALT_SPLIT_DETECT = 12
_SALT_ENSEMBLE = 13
_SALT_MF = 21
_SALT_CLUSTER = 31
_SALT_INJECT = {"uniform": 41, "flip": 42, "optout": 43}


@dataclass(frozen=True)
class PipelineConfig(BoardConfig, EnsembleConfig):
    """Flat, fully defaulted configuration for a pipeline run: the board's
    and the ensemble's keys, inherited, plus the keys of the other stages."""

    ratings_path: str = ""
    movies_path: str = ""
    out_dir: str = "out"
    run_id: str | None = None
    mask_path: str | None = None

    scale_min: float = 0.5
    scale_max: float = 5.0
    min_activity: int = 50
    activity_by: str = "user"

    train_fraction: float = 0.7
    detect_fraction: float = 0.15
    eval_fraction: float = 0.15

    signature_threshold: float = 0.5
    signature_action: str = "remove_user"
    signature_denominator: str = DENOMINATOR_LAST_DAY

    mf_factors: int = 16
    mf_epochs: int = 20
    mf_reg: float = 0.02

    clusters_k: int = 20
    top_k: int = 10
    plane_a: float = 0.07
    plane_b: float = 0.17
    serendipity_formula: str = FORMULA_COMPLEMENT
    relevance_threshold: float = 3.5
    percent_basis: str = BASIS_USERS

    seed: int = 0

    # -- derived sub-configs -------------------------------------------

    def scale(self) -> Scale:
        return Scale(self.scale_min, self.scale_max)

    def action(self) -> SignatureAction:
        return SignatureAction(self.signature_action)

    def validate(self) -> None:
        for name, kind in typing.get_type_hints(PipelineConfig).items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)}")
        if not self.ratings_path:
            raise ConfigError("ratings_path is required")
        if not self.movies_path:
            raise ConfigError("movies_path is required: NF2 and serendipity need item genres")
        if not self.scale_min < self.scale_max:
            raise ConfigError("scale_min must be less than scale_max")
        if not self.nf1_cut_low < self.nf1_cut_high:
            raise ConfigError("nf1_cut_low must be less than nf1_cut_high")
        if not 0.0 <= self.nf1_majority < 1.0:
            raise ConfigError("nf1_majority must be in [0, 1): no class holds more than all")
        fr = (self.train_fraction, self.detect_fraction, self.eval_fraction)
        if any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must be positive and sum to 1, got {fr}")
        if self.min_activity < 1:
            raise ConfigError("min_activity must be >= 1")
        if self.activity_by not in ("user", "item"):
            raise ConfigError(f"activity_by must be 'user' or 'item', got {self.activity_by!r}")
        try:
            self.nf3_knn()
        except ValueError as exc:
            # KnnConfig names its field, which is the config key less "nf3_".
            raise ConfigError(f"nf3_{exc}") from None
        if self.ensemble_variant not in VARIANTS:
            raise ConfigError(
                f"ensemble_variant must be one of {VARIANTS}, got {self.ensemble_variant!r}"
            )
        if min(self.rf_trees, self.ressel_bags, self.eif_trees) < 1:
            raise ConfigError("rf_trees, ressel_bags and eif_trees must be >= 1")
        if min(self.gbt_rounds, self.gbt_depth, self.rf_max_depth) < 1:
            raise ConfigError("gbt_rounds, gbt_depth and rf_max_depth must be >= 1")
        if self.eif_sample_size < 2:
            raise ConfigError("eif_sample_size must be >= 2: one point has no isolation depth")
        d = len(FEATURE_NAMES)
        if self.rf_feature_subset is not None and not 1 <= self.rf_feature_subset <= d:
            raise ConfigError(f"rf_feature_subset must be in [1, {d}], the feature count")
        if self.eif_extension_level is not None and not 0 <= self.eif_extension_level < d:
            raise ConfigError(f"eif_extension_level must be in [0, {d - 1}]")
        if self.ressel_add_per_round < 1 or self.ressel_max_rounds < 0:
            raise ConfigError("ressel_add_per_round must be >= 1 and ressel_max_rounds >= 0")
        if min(self.gbt_lr, self.mf_reg) < 0.0:
            raise ConfigError("gbt_lr and mf_reg must be >= 0")
        try:
            SignatureAction(self.signature_action)
        except ValueError:
            raise ConfigError(f"unknown signature_action {self.signature_action!r}") from None
        if self.signature_denominator not in (DENOMINATOR_LAST_DAY, DENOMINATOR_GLOBAL_NOISE):
            raise ConfigError(f"unknown signature_denominator {self.signature_denominator!r}")
        if self.serendipity_formula not in (FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL):
            raise ConfigError(f"unknown serendipity_formula {self.serendipity_formula!r}")
        if self.percent_basis not in (BASIS_USERS, BASIS_RATINGS):
            raise ConfigError(f"unknown percent_basis {self.percent_basis!r}")
        if self.clusters_k < 1 or self.top_k < 1:
            raise ConfigError("clusters_k and top_k must be >= 1")
        if self.mf_factors < 1 or self.mf_epochs < 1:
            raise ConfigError("mf_factors and mf_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _coerce(name: str, value, kind: type):
    try:
        if kind is int:
            if isinstance(value, bool):
                raise ValueError("bool is not an integer here")
            if isinstance(value, float) and value != int(value):
                raise ValueError("not an integer")
            return int(value)
        if kind is float:
            return float(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {name!r}: cannot read {value!r} as {kind.__name__}") from exc


def config_from_dict(values: Mapping[str, object]) -> PipelineConfig:
    """Build a config from a flat key-value mapping, coercing strings.

    A key typed `X | None` reads None from None or "", and an optional int
    also from "none".
    """
    hints = typing.get_type_hints(PipelineConfig)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    out: dict[str, object] = {}
    for name, value in values.items():
        # `X | None` unpacks to kind X and optional [NoneType], a plain X to X and [].
        kind, *optional = typing.get_args(hints[name]) or (hints[name],)
        if optional and (value in (None, "") or (kind is int and value == "none")):
            out[name] = None
        else:
            out[name] = _coerce(name, value, kind)
    cfg = PipelineConfig(**out)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict[str, object]:
    return dataclasses.asdict(cfg)


def load_config(path: str | Path, overrides: Mapping[str, object] = {}) -> PipelineConfig:
    """Read a flat JSON object of config keys; overrides win over its values."""
    try:
        raw = _checked_json(path, "config", {})
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} must hold key-value pairs: {exc}") from exc
    return config_from_dict({**raw, **overrides})


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of everything that affects results (output location excluded)."""
    d = config_to_dict(cfg)
    d.pop("out_dir")
    d.pop("run_id")
    blob = json.dumps(d, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- noise injection ----------------------------------------------------


class NoiseKind(Enum):
    UNIFORM_REPLACE = "uniform"
    FLIP = "flip"
    OPTOUT_BURST = "optout"


class GroundTruthMask(NamedTuple):
    kind: NoiseKind
    keys: frozenset[tuple[int, int]]
    rate: float
    seed: int


def inject_noise(
    table: RatingsTable, rate: float, kind: NoiseKind, seed: int = 0
) -> tuple[RatingsTable, GroundTruthMask]:
    """Perturb an exact seeded share of the table and return the mask.

    uniform: each selected rating becomes a different grid value drawn
    uniformly.  flip: r -> r_max + r_min - r.  optout: the selection is
    over users, and every rating on a selected user's last active UTC day
    is replaced by a fresh uniform grid draw.  Draws are made one rating
    at a time, in row order.
    """
    if not 0.0 <= rate <= 0.5:
        raise ValueError(f"rate must be in [0, 0.5], got {rate}")
    rng = np.random.default_rng([seed, _SALT_INJECT[kind.value]])
    if kind is NoiseKind.OPTOUT_BURST:
        users = table.user_ids()
        chosen = users[rng.permutation(len(users))[: int(round(rate * len(users)))]]
        starts = run_starts(table.users)
        days = table.timestamps // 86400
        last = np.repeat(np.maximum.reduceat(days, starts), np.diff(np.r_[starts, len(table)]))
        sel = np.flatnonzero(np.isin(table.users, chosen) & (days == last))
    else:
        sel = np.sort(rng.permutation(len(table))[: int(round(rate * len(table)))])
    values = table.values.copy()
    if kind is NoiseKind.FLIP:
        values[sel] = table.scale.r_max + table.scale.r_min - values[sel]
    else:
        grid = table.scale.grid(0.5)
        for k in sel.tolist():
            others = grid[grid != values[k]]
            values[k] = others[rng.integers(len(others))]
    out = RatingsTable(table.users, table.items, values, table.timestamps, table.scale)
    keys = frozenset(zip(table.users[sel].tolist(), table.items[sel].tolist()))
    return out, GroundTruthMask(kind, keys, rate, seed)


def write_mask(mask: GroundTruthMask, path: str | Path) -> None:
    dump_json(
        {
            "kind": mask.kind.value,
            "rate": mask.rate,
            "seed": mask.seed,
            "keys": sorted([list(k) for k in mask.keys]),
        },
        path,
    )


# The types a JSON entry may have, and how an error names them.
_INT, _NUMBER, _STR = (int, "an integer"), ((int, float), "a number"), (str, "a string")
_LIST, _OBJECT = (list, "a list"), (dict, "an object")
_STR_OR_NULL = ((str, type(None)), "a string or null")
_MISSING = object()  # the value of an entry that is not there

# The type of each write_mask entry.
_MASK_ENTRIES = {"kind": _STR, "rate": _NUMBER, "seed": _INT, "keys": _LIST}


def _found(value, keys: list[str], at: tuple[str, ...] = ()) -> list[tuple[str, object]]:
    """(dotted name, value or _MISSING) of each entry that keys name below value."""
    if not keys:
        return [(".".join(at), value)]
    key, *rest = keys
    value = value if isinstance(value, dict) else {}
    if key.endswith("?") and key[:-1] not in value:
        return []
    names = sorted(value) if key == "*" else [key.removesuffix("?")]
    return [e for k in names for e in _found(value.get(k, _MISSING), rest, (*at, k))]


def _checked_json(path: str | Path, what: str, entries: Mapping[str, tuple]) -> dict:
    """The JSON object at path; ValueError unless it holds each of entries
    (dotted name: (types, description)), in order, with one of its types, a
    bool no number.  A `*` key stands for each key of the object above it,
    in sorted order, and a key that ends in `?` for nothing when absent."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object")
    for name, (types, kind) in entries.items():
        for at, value in _found(raw, name.split(".")):
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(f"{what} entry {at!r} is missing or not {kind}")
    return raw


def read_mask(path: str | Path) -> GroundTruthMask:
    """The mask write_mask wrote.  ValueError when the file is not a JSON
    object, an entry is missing or has the wrong type, the rate is outside
    [0, 0.5], or a key is not a [userId, itemId] pair of integers >= 0 or repeats."""
    raw = _checked_json(path, "mask", _MASK_ENTRIES)
    if not 0.0 <= raw["rate"] <= 0.5:
        raise ValueError(f"mask entry 'rate' must be in [0, 0.5], got {raw['rate']}")
    keys = raw["keys"]
    if not all(isinstance(k, list) and len(k) == 2 and all(type(x) is int for x in k) for k in keys):
        raise ValueError("mask entry 'keys' must list [userId, itemId] pairs of integers")
    if any(min(k) < 0 for k in keys):
        raise ValueError("mask entry 'keys' holds a negative id")
    pairs = frozenset(map(tuple, keys))
    if len(pairs) < len(keys):
        raise ValueError("mask entry 'keys' repeats a [userId, itemId] pair")
    return GroundTruthMask(NoiseKind(raw["kind"]), pairs, float(raw["rate"]), raw["seed"])


# -- artifact layout ----------------------------------------------------


class RunPaths:
    def __init__(self, out_dir: str | Path, run_id: str):
        self.run_id = run_id
        self.base = Path(out_dir) / run_id
        self.splits = self.base / "splits"
        self.manifest = self.base / "manifest.json"
        self.ingest = self.base / "ingest.json"
        self.train_csv = self.splits / "train.csv"
        self.detect_csv = self.splits / "detect.csv"
        self.eval_csv = self.splits / "eval.csv"
        self.votes = self.base / "votes.csv"
        self.board_json = self.base / "board.json"
        self.features = self.base / "features.csv"
        self.ensemble_csv = self.base / "ensemble.csv"
        self.signature_csv = self.base / "signature.csv"
        self.report = self.base / "report.json"

    def scatter(self, pair: str) -> Path:
        return self.base / f"scatter-{pair}.svg"

    def deltas(self, pair: str) -> Path:
        return self.base / f"deltas-{pair}.csv"


def run_paths(cfg: PipelineConfig, mode: str = "run") -> RunPaths:
    run_id = cfg.run_id if cfg.run_id else f"{mode}-{config_hash(cfg)}"
    return RunPaths(cfg.out_dir, run_id)


def _stage(name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except (ConfigError, DataError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    logger.info("stage %s: %.3f s", name, time.perf_counter() - start)
    return result


def _read(reader, path: Path, *args):
    """reader(path, *args), with the ValueError of a malformed input or
    artifact, or the OSError of an unreadable one, raised as DataError that
    names the path."""
    try:
        return reader(path, *args)
    except ValueError as exc:
        message = str(exc)
        raise DataError(message if str(path) in message else f"{path}: {message}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


# -- stage bodies -------------------------------------------------------


def _load_genres(cfg: PipelineConfig) -> GenreMap:
    path = Path(cfg.movies_path)
    if not path.exists():
        raise DataError(f"movies file not found: {path}")
    return _read(load_genres, path)


def _load_split(cfg: PipelineConfig, path: Path) -> RatingsTable:
    return _read(load_ratings, path, cfg.scale())


def stage_ingest(cfg: PipelineConfig) -> tuple[RatingsTable, dict]:
    """Load, dedupe and activity-filter the ratings."""
    path = Path(cfg.ratings_path)
    if not path.exists():
        raise DataError(f"ratings file not found: {path}")
    table = _read(load_ratings, path, cfg.scale())
    # Read only to check them: a bad movies or mask file fails here, at
    # ingest, not in the detect or evaluate stage that uses it.
    _load_genres(cfg)
    _load_mask_if_configured(cfg)
    loaded = len(table)
    dropped = table.dropped_duplicates
    table = filter_min_activity(table, cfg.min_activity, cfg.activity_by)
    if len(table) == 0:
        raise DataError(
            f"no ratings left after min_activity={cfg.min_activity} filter on {cfg.activity_by}s"
        )
    counts = {
        "ratings_loaded": loaded,
        "dropped_duplicates": dropped,
        "ratings_after_filter": len(table),
        "users": len(table.user_ids()),
        "items": len(table.item_ids()),
    }
    return table, counts


def split_three(
    table: RatingsTable, fractions: tuple[float, float, float], seed: int
) -> tuple[RatingsTable, RatingsTable, RatingsTable]:
    """Per-user three-way split: train for modeling, detect for noise
    verdicts, eval held out untouched for the before/after comparison."""
    f_train, f_detect, f_eval = fractions
    first = f_train + f_detect
    working, eval_t = split_train_test(
        table, SplitSpec(first, derive_seed(seed, _SALT_SPLIT_EVAL))
    )
    train, detect = split_train_test(
        working, SplitSpec(f_train / first, derive_seed(seed, _SALT_SPLIT_DETECT))
    )
    return train, detect, eval_t


def stage_split(cfg: PipelineConfig, table: RatingsTable, counts: dict, paths: RunPaths) -> None:
    """Write the three splits, then ingest's counts to ingest.json."""
    fractions = (cfg.train_fraction, cfg.detect_fraction, cfg.eval_fraction)
    train, detect, eval_t = split_three(table, fractions, cfg.seed)
    if len(detect) == 0 or len(eval_t) == 0:
        raise DataError("detect or eval split is empty; dataset too small for the fractions")
    train.to_csv(paths.train_csv)
    detect.to_csv(paths.detect_csv)
    eval_t.to_csv(paths.eval_csv)
    dump_json(counts, paths.ingest)


def stage_board(cfg: PipelineConfig, paths: RunPaths, inputs: Mapping) -> dict:
    """Layer 1 plus the feature matrix Layer 2 will consume; everything
    persisted so the ensemble stage can run without recomputation."""
    board = run_board(inputs["train_csv"], inputs["detect_csv"], _load_genres(cfg), cfg)
    X = build_feature_matrix(inputs["detect_csv"], board.context, board)
    write_votes(board.votes, paths.votes)
    write_features(paths.features, board.votes.users, board.votes.items, X)
    tally = np.bincount(board.votes.consensus, minlength=len(CONSENSUS))
    section = {
        "consensus": dict(zip((c.value for c in CONSENSUS), tally.tolist())),
        "per_detector_noisy": dict(zip(DETECTOR_IDS, board.votes.noisy.sum(axis=0).tolist())),
        "venn": dict(board.venn),
        "nf3_unpredictable": board.nf3.n_unpredictable,
        "nf4_prefiltered": board.nf4.n_prefiltered,
    }
    dump_json(section, paths.board_json)
    return section


def stage_ensemble(cfg: PipelineConfig, paths: RunPaths, inputs: Mapping) -> dict:
    """Layer 2: arbitrate every Uncertain rating with the configured
    learner, trained on the unanimous ratings; features.csv holds one
    feature row per vote row."""
    votes, (_, _, X) = inputs["votes"], inputs["features"]
    uncertain = votes.where(Consensus.UNCERTAIN)
    classified, scores = np.zeros(0, dtype=bool), np.zeros(0)
    if uncertain.any():
        y = votes.where(Consensus.NOISY)[~uncertain].astype(np.int64)
        X_unc = X[uncertain]
        model = train_el(X[~uncertain], y, X_unc, cfg, derive_seed(cfg.seed, _SALT_ENSEMBLE))
        classified, scores = classify_uncertain(model, X_unc)
    write_classification(
        votes.users[uncertain], votes.items[uncertain], classified, scores,
        cfg.ensemble_variant, paths.ensemble_csv,
    )
    return _ensemble_info(cfg.ensemble_variant, classified)


def _ensemble_info(variant: str | None, classified: np.ndarray) -> dict:
    n_noisy = int(classified.sum())
    return {
        "variant": variant,
        "uncertain_total": len(classified),
        "classified_noisy": n_noisy,
        "classified_clean": len(classified) - n_noisy,
    }


def _final_noisy(votes: Votes, classified: np.ndarray) -> np.ndarray:
    """Noisy flag per vote row: the consensus where the board is unanimous,
    the ensemble's label of the Uncertain rows elsewhere."""
    noisy = votes.where(Consensus.NOISY)
    noisy[votes.where(Consensus.UNCERTAIN)] = classified
    return noisy


def stage_signature(cfg: PipelineConfig, paths: RunPaths, inputs: Mapping) -> dict:
    noisy = _final_noisy(inputs["votes"], inputs["ensemble_csv"][2])
    hits = detect_optout(
        inputs["detect_csv"], noisy, cfg.signature_threshold, cfg.signature_denominator
    )
    write_hits(hits, cfg.action(), paths.signature_csv)
    return {"flagged_users": hits.users.tolist(), "count": len(hits)}


def _clean_corpus(
    corpus: RatingsTable,
    votes: Votes,
    noisy: np.ndarray,
    hits: Hits,
    action: SignatureAction,
) -> tuple[RatingsTable, dict]:
    after_noise = corpus.without_keys(votes.users[noisy], votes.items[noisy])
    cleaned = apply_signature_action(after_noise, hits, action)
    removal = {
        "corpus_size": len(corpus),
        "noisy_ratings_removed": len(corpus) - len(after_noise),
        "signature_ratings_removed": len(after_noise) - len(cleaned),
        "cleaned_size": len(cleaned),
    }
    return cleaned, removal


def _rating_counts(table: RatingsTable, users: np.ndarray) -> np.ndarray:
    """The number of table rows of each user, for users in ascending id."""
    return np.searchsorted(table.users, users, "right") - np.searchsorted(table.users, users)


def _relevant(eval_t: RatingsTable, cfg: PipelineConfig) -> RatingsTable:
    """The held-out ratings at or above relevance_threshold: the hits of both arms."""
    return eval_t.subset_rows(np.flatnonzero(eval_t.values >= cfg.relevance_threshold))


def _evaluate_arm(
    model: MfModel,
    corpus: RatingsTable,
    relevant: RatingsTable,
    n_relevant: np.ndarray,
    universe: np.ndarray,
    genres: GenreMap,
    cfg: PipelineConfig,
) -> ArmEval:
    """Every metric of one arm for the users of universe, in ascending id;
    relevant is _relevant of the held-out fold, n_relevant its _rating_counts."""
    topk = recommend_topk(model, corpus, universe, cfg.top_k)
    hit = relevant.contains(np.repeat(universe, cfg.top_k), topk.ravel()).reshape(topk.shape)
    metrics = ranking_metrics(hit, n_relevant, cfg.top_k)
    ser = serendipity(topk, hit, corpus, universe, genres, cfg.serendipity_formula)
    return ArmEval(*metrics, ser)


def stage_evaluate(
    cfg: PipelineConfig,
    corpus: RatingsTable,
    cleaned: RatingsTable,
    eval_t: RatingsTable,
    genres: GenreMap,
    paths: RunPaths,
) -> tuple[dict[str, DeltaReport], dict]:
    """Retrain both arms, evaluate on the untouched fold, classify deltas."""
    mf_seed = derive_seed(cfg.seed, _SALT_MF)
    before = mf_train(corpus, f=cfg.mf_factors, epochs=cfg.mf_epochs, reg=cfg.mf_reg, seed=mf_seed)
    after = mf_train(cleaned, f=cfg.mf_factors, epochs=cfg.mf_epochs, reg=cfg.mf_reg, seed=mf_seed)
    for arm, model in (("before", before), ("after", after)):
        sweeps = " ".join(f"{r:.6g}" for r in model.rmse_per_epoch)
        logger.info("mf %s: rmse per sweep %s", arm, sweeps)

    eval_users = np.unique(eval_t.users)
    evaluable = np.isin(eval_users, corpus.users) & np.isin(eval_users, cleaned.users)
    universe = eval_users[evaluable]
    if not len(universe):
        raise DataError("no users remain evaluable in the held-out fold")

    X = before.P[np.searchsorted(before.users, universe)]
    assign = cluster_users(X, k=cfg.clusters_k, seed=derive_seed(cfg.seed, _SALT_CLUSTER))
    relevant = _relevant(eval_t, cfg)
    n_relevant = _rating_counts(relevant, universe)
    before_eval = _evaluate_arm(before, corpus, relevant, n_relevant, universe, genres, cfg)
    after_eval = _evaluate_arm(after, cleaned, relevant, n_relevant, universe, genres, cfg)
    weights = _rating_counts(eval_t, universe)
    plane = (cfg.plane_a, cfg.plane_b)

    reports: dict[str, DeltaReport] = {}
    pair_sections: dict[str, dict] = {}
    for metric in ACCURACY_METRICS:
        rep = delta_points(
            universe, assign.labels, before_eval, after_eval, metric, plane,
            basis=cfg.percent_basis, weights=weights,
        )
        reports[rep.pair] = rep
        write_delta_csv(paths.deltas(rep.pair), rep)
        write_scatter_svg(paths.scatter(rep.pair), rep.x, rep.y, rep.positive, plane, rep.pair)
        q_counts = np.bincount(rep.quadrant, minlength=len(QUADRANTS)).tolist()
        pair_sections[rep.pair] = {
            "percent_positive": rep.percent_positive,
            "quadrant_counts": {q.value: n for q, n in zip(QUADRANTS, q_counts)},
            "boundary_points": int(np.count_nonzero(rep.boundary)),
        }

    section = {
        "clusters_k": assign.k,
        "top_k": cfg.top_k,
        "plane": list(plane),
        "universe_users": len(universe),
        "excluded_users": eval_users[~evaluable].tolist(),
        "global_before": global_means(before_eval),
        "global_after": global_means(after_eval),
        "critical_group_pct_before": critical_groups(assign.labels, before_eval.ndcg),
        "critical_group_pct_after": critical_groups(assign.labels, after_eval.ndcg),
        "pairs": pair_sections,
    }
    return reports, section


# -- report assembly ----------------------------------------------------


_REPORT_GLOSSARY = {
    "quadrants": (
        "x is the serendipity delta and y the accuracy delta; sign patterns "
        "map (+,+)->I, (-,+)->II, (-,-)->III, (+,-)->IV; a zero coordinate "
        "takes the positive sign by convention and is flagged as a boundary "
        "point; the exact origin is labeled Origin"
    ),
    "positive": "a point counts positive iff plane_a*x + plane_b*y > 0 strictly",
    "percent_positive_basis": (
        "users: one vote per evaluated user; ratings: votes weighted by the "
        "user's held-out rating count"
    ),
    "critical_group_pct": (
        "share of clusters whose mean nDCG falls strictly below the mean of "
        "the cluster means"
    ),
}


def _provenance(cfg: PipelineConfig) -> dict:
    """The config block shared by the run manifest and the report."""
    return {
        "config": {
            k: v for k, v in config_to_dict(cfg).items() if k not in ("out_dir", "run_id")
        },
        "config_hash": config_hash(cfg),
    }


def _precision_recall(flagged: np.ndarray, positive: np.ndarray) -> dict:
    n_flagged, tp, n_positive = (int(m.sum()) for m in (flagged, flagged & positive, positive))
    return {
        "flagged": n_flagged,
        "true_positives": tp,
        "precision": tp / n_flagged if n_flagged else 0.0,
        "recall": tp / n_positive if n_positive else 0.0,
    }


def ground_truth_section(
    mask: GroundTruthMask,
    votes: Votes,
    labels: Mapping[tuple[int, int], Verdict],
) -> dict:
    """Detector precision/recall against the known perturbed keys,
    restricted to the split the detectors actually saw; labels are the
    final labels of those ratings."""
    keys = votes.keys()
    positive = np.fromiter(map(mask.keys.__contains__, keys), bool, len(keys))
    final = np.fromiter((labels.get(k) is Verdict.NOISY for k in keys), bool, len(keys))
    return {
        "kind": mask.kind.value,
        "rate": mask.rate,
        "mask_size": len(mask.keys),
        "positives_in_detect": int(positive.sum()),
        "detectors": {
            det: _precision_recall(votes.noisy[:, d], positive)
            for d, det in enumerate(DETECTOR_IDS)
        },
        "consensus": _precision_recall(votes.where(Consensus.NOISY), positive),
        "final_labels": _precision_recall(final, positive),
    }


def _load_mask_if_configured(cfg: PipelineConfig) -> GroundTruthMask | None:
    if not cfg.mask_path:
        return None
    mpath = Path(cfg.mask_path)
    if not mpath.exists():
        raise DataError(f"mask file not found: {mpath}")
    return _read(read_mask, mpath)


# -- stages ---------------------------------------------------------------
#
# run_stage runs every stage, end to end (`run_framework`) or one per command
# on the same run directory, with bit-identical artifacts.  A stage reads the
# artifacts STAGES declares, and a manifest pins the directory to one config.


class RunResult(NamedTuple):
    reports: dict[str, DeltaReport]
    report_dict: dict
    paths: RunPaths
    votes: Votes
    noisy: np.ndarray
    hits: Hits


# The config keys of the input files whose sha256 the manifest records.
_INPUT_KEYS = ("ratings_path", "movies_path")

# The type of each entry that _ingest, stage_ingest and stage_board write, an
# object before the entries within it.
_MANIFEST_ENTRIES = {"config": _OBJECT, "config_hash": _STR, "inputs": _OBJECT,
                     **{f"inputs.{key}": _STR for key in _INPUT_KEYS}}
_INGEST_ENTRIES = dict.fromkeys(
    ("ratings_loaded", "dropped_duplicates", "ratings_after_filter", "users", "items"), _INT
)
_BOARD_ENTRIES = {
    "consensus": _OBJECT, **{f"consensus.{c.value}": _INT for c in CONSENSUS},
    "per_detector_noisy": _OBJECT, **{f"per_detector_noisy.{d}": _INT for d in DETECTOR_IDS},
    "venn": _OBJECT,
    **{f"venn.{region}": _INT for region in venn_counts(np.zeros((0, len(DETECTOR_IDS))))},
    "nf3_unpredictable": _INT, "nf4_prefiltered": _INT,
}

# The type of each report entry `noisegate report` prints: board is board.json,
# counts adds the split sizes to ingest.json, ground_truth is there with a mask.
_REPORT_ENTRIES = {
    "counts": _OBJECT,
    **{f"counts.{name}": _INT for name in (*_INGEST_ENTRIES, "train", "detect", "eval")},
    "mode": _STR, "detector": _STR_OR_NULL,
    **{f"board.{name}": kind for name, kind in _BOARD_ENTRIES.items()},
    "ensemble": _OBJECT, "ensemble.variant": _STR_OR_NULL, "signature": _OBJECT,
    "signature.flagged_users": _LIST, "removal": _OBJECT, "evaluation": _OBJECT,
    **dict.fromkeys((
        "ensemble.uncertain_total", "ensemble.classified_noisy", "ensemble.classified_clean",
        "signature.count", "removal.corpus_size", "removal.noisy_ratings_removed",
        "removal.signature_ratings_removed", "removal.cleaned_size", "evaluation.universe_users",
    ), _INT),
    "evaluation.excluded_users": _LIST, "evaluation.pairs": _OBJECT,
    "evaluation.pairs.*.percent_positive": _NUMBER, "evaluation.pairs.*.quadrant_counts": _OBJECT,
    "evaluation.critical_group_pct_before": _NUMBER, "evaluation.critical_group_pct_after": _NUMBER,
    "ground_truth?": _OBJECT, "ground_truth?.consensus": _OBJECT,
    "ground_truth?.consensus.precision": _NUMBER, "ground_truth?.consensus.recall": _NUMBER,
    "ground_truth?.kind": _STR, "ground_truth?.rate": _NUMBER,
}

# The reader of each artifact, by its RunPaths name.  Each looks its functions
# up when it runs, so a wrapper set on a module attribute sees every read.
_READERS: dict[str, Callable[[PipelineConfig, Path], object]] = {
    **dict.fromkeys(("train_csv", "detect_csv", "eval_csv"), lambda cfg, p: _load_split(cfg, p)),
    "manifest": lambda cfg, p: _read(_checked_json, p, "manifest", _MANIFEST_ENTRIES),
    "ingest": lambda cfg, p: _read(_checked_json, p, "ingest", _INGEST_ENTRIES),
    "board_json": lambda cfg, p: _read(_checked_json, p, "board", _BOARD_ENTRIES),
    "votes": lambda cfg, p: _read(read_votes, p),
    "features": lambda cfg, p: _read(read_features, p),
    "ensemble_csv": lambda cfg, p: _read(read_classification, p, cfg.ensemble_variant),
    "signature_csv": lambda cfg, p: _read(read_hits, p, cfg.action()),
}

# Artifacts that list the ratings of another row for row: (artifact, the
# one it follows, whether it lists only that one's Uncertain ratings).
_FOLLOWS = (("features", "votes", False), ("votes", "detect_csv", False),
            ("ensemble_csv", "votes", True))


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    """sha256 of each input file the run reads, keyed by its config key."""
    digests = {}
    for key in _INPUT_KEYS:
        path = Path(getattr(cfg, key))
        if not path.exists():
            raise DataError(f"{key} file not found: {path}")
        try:
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            raise DataError(f"{path}: {exc.strerror or exc}") from exc
    return digests


def _resume(cfg: PipelineConfig, paths: RunPaths, stage: str) -> None:
    """Check that the artifacts the stage reads and the manifest exist, a
    missing one naming the stage that writes it, and that the run directory
    was built with cfg and the same input files."""
    for name in (*STAGES[stage].reads, "manifest"):
        path = getattr(paths, name)
        if not path.exists():
            producer = next(p for p, s in STAGES.items() if name in s.writes)
            raise DataError(f"missing artifact {path}; run the {producer} stage first")
    manifest = _READERS["manifest"](cfg, paths.manifest)
    built = manifest["config_hash"]
    if built != config_hash(cfg):
        raise ConfigError(
            f"run directory {paths.base} was built with config_hash {built}, but this "
            f"config has config_hash {config_hash(cfg)}; changed settings need a new run_id"
        )
    recorded = manifest["inputs"]
    for key, digest in _input_digests(cfg).items():
        if recorded[key] != digest:
            raise ConfigError(
                f"{key} file {getattr(cfg, key)} changed since run directory {paths.base} "
                f"was built (sha256 {recorded[key]}, now {digest}); "
                "changed inputs need a new run_id"
            )


def _read_inputs(cfg: PipelineConfig, paths: RunPaths, names: typing.Iterable[str]) -> dict:
    """The named artifacts, read through _READERS; a DataError unless each
    pair of _FOLLOWS among them lines up row for row."""
    inputs = {name: _READERS[name](cfg, getattr(paths, name)) for name in names}
    for name, ref, uncertain in _FOLLOWS:
        if name not in inputs or ref not in inputs:
            continue
        artifact, other = inputs[name], inputs[ref]
        # features.csv and ensemble.csv read as tuples that start (users, items)
        keys = artifact[:2] if isinstance(artifact, tuple) else (artifact.users, artifact.items)
        rows = other.where(Consensus.UNCERTAIN) if uncertain else slice(None)
        if not all(map(np.array_equal, keys, (other.users[rows], other.items[rows]))):
            listed = "Uncertain ratings" if uncertain else "ratings"
            raise DataError(
                f"{getattr(paths, name)} does not list the {listed} of "
                f"{getattr(paths, ref)} row for row"
            )
    return inputs


def _ingest(cfg: PipelineConfig, paths: RunPaths, inputs: Mapping) -> dict:
    # Hashed before reading: an input edited during ingest then fails the
    # next stage's check instead of passing with splits of unknown content.
    digests = _input_digests(cfg)
    table, counts = _stage("ingest", stage_ingest, cfg)
    _stage("split", stage_split, cfg, table, counts, paths)
    dump_json({**_provenance(cfg), "inputs": digests}, paths.manifest)
    return counts


def _evaluate(cfg: PipelineConfig, paths: RunPaths, inputs: Mapping) -> RunResult:
    """_evaluate_labels, in the evaluate span, with the board's, the
    ensemble's and the signature's labels."""
    classified = inputs["ensemble_csv"][2]
    return _stage(
        "evaluate", _evaluate_labels, cfg, paths, inputs,
        _final_noisy(inputs["votes"], classified), inputs["signature_csv"],
        _ensemble_info(cfg.ensemble_variant, classified),
    )


def _evaluate_labels(
    cfg: PipelineConfig, paths: RunPaths, inputs: Mapping,
    noisy: np.ndarray, hits: Hits, ensemble: dict, detector: str | None = None,
) -> RunResult:
    """Remove the detect ratings flagged noisy (one per vote row) and the
    hits' ratings from train and detect, retrain, evaluate and write the
    report; inputs holds the splits, the votes, ingest.json and board.json
    as read.  A detector names the single detector of a baseline run."""
    genres = _load_genres(cfg)
    train, detect, eval_t = inputs["train_csv"], inputs["detect_csv"], inputs["eval_csv"]
    votes = inputs["votes"]
    corpus = train.merged(detect)
    cleaned, removal = _clean_corpus(corpus, votes, noisy, hits, cfg.action())
    reports, eval_section = stage_evaluate(cfg, corpus, cleaned, eval_t, genres, paths)
    report_dict = {
        **_provenance(cfg),
        "mode": "run" if detector is None else "baseline",
        "detector": detector,
        "seed": cfg.seed,
        "counts": {**inputs["ingest"], "train": len(train), "detect": len(detect),
                   "eval": len(eval_t)},
        "board": inputs["board_json"],
        "ensemble": ensemble,
        "signature": {
            "flagged_users": hits.users.tolist(),
            "count": len(hits),
            "threshold": cfg.signature_threshold,
            "denominator": cfg.signature_denominator,
            "action": cfg.signature_action,
        },
        "removal": removal,
        "evaluation": eval_section,
        "glossary": _REPORT_GLOSSARY,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    mask = _load_mask_if_configured(cfg)
    if mask is not None:
        # ground_truth_section keeps (user, item)-keyed labels: perfbench's noise_quality passes them.
        labels = {k: Verdict.NOISY if f else Verdict.CLEAN for k, f in zip(votes.keys(), noisy)}
        report_dict["ground_truth"] = ground_truth_section(mask, votes, labels)
    dump_json(report_dict, paths.report)
    return RunResult(reports, report_dict, paths, votes, noisy, hits)


class Stage(NamedTuple):
    """A staged command: its help line, the RunPaths attributes of the
    artifacts it reads and writes (deltas and scatter name one file per
    metric pair), and its body.  The body takes the config, the paths and
    the artifacts read, by name, and returns the JSON summary the command
    prints or, for evaluate, the RunResult that summary is taken from."""

    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    body: Callable[[PipelineConfig, RunPaths, Mapping], object]


# The stage graph, in run order: `run` is these commands chained, and a
# stage that resumes from a run directory also reads its manifest.  The
# lambdas look their stage_* function up when they run, in a _stage span.
STAGES: dict[str, Stage] = {
    "ingest": Stage(
        "load, dedupe, filter, and write the three splits",
        (),
        ("train_csv", "detect_csv", "eval_csv", "ingest", "manifest"),
        _ingest,
    ),
    "detect": Stage(
        "run the four-detector board on the detect split",
        ("train_csv", "detect_csv"),
        ("votes", "features", "board_json"),
        lambda cfg, paths, inputs: _stage("board", stage_board, cfg, paths, inputs),
    ),
    "ensemble": Stage(
        "classify the Uncertain set with the configured learner",
        ("votes", "features"),
        ("ensemble_csv",),
        lambda cfg, paths, inputs: _stage("ensemble", stage_ensemble, cfg, paths, inputs),
    ),
    "signature": Stage(
        "scan labeled ratings for opt-out obfuscation",
        ("detect_csv", "votes", "ensemble_csv"),
        ("signature_csv",),
        lambda cfg, paths, inputs: _stage("signature", stage_signature, cfg, paths, inputs),
    ),
    "evaluate": Stage(
        "retrain before/after and write the delta report",
        ("train_csv", "detect_csv", "eval_csv", "ingest", "board_json", "votes",
         "ensemble_csv", "signature_csv"),
        ("deltas", "scatter", "report"),
        _evaluate,
    ),
}


def run_stage(name: str, cfg: PipelineConfig, paths: RunPaths):
    """Run the stage of STAGES called name in the run directory paths and
    return what its body returns.  A stage that reads artifacts, or ingest
    into a directory that has a manifest, resumes: it checks the directory
    (_resume), then reads the artifacts (_read_inputs)."""
    cfg.validate()
    stage = STAGES[name]
    if stage.reads or paths.manifest.exists():
        _resume(cfg, paths, name)
    return stage.body(cfg, paths, _read_inputs(cfg, paths, stage.reads))


def run_framework(cfg: PipelineConfig) -> RunResult:
    """Full three-layer run: board consensus, ensemble arbitration of the
    Uncertain set, opt-out signature, removal, retrain, evaluate."""
    paths = run_paths(cfg)
    for name in STAGES:
        result = run_stage(name, cfg, paths)
    return result


def run_baseline(cfg: PipelineConfig, detector: str) -> RunResult:
    """Single-detector run: that detector's Noisy verdicts alone drive
    removal; the evaluation protocol is identical to the full framework."""
    if detector not in DETECTOR_IDS:
        raise ConfigError(f"detector must be one of {DETECTOR_IDS}, got {detector!r}")
    paths = run_paths(cfg, f"baseline-{detector.lower()}")
    for name in ("ingest", "detect"):
        run_stage(name, cfg, paths)
    # What evaluate reads but the labels of Layers 2 and 3, which a baseline does not make.
    labels = STAGES["ensemble"].writes + STAGES["signature"].writes
    inputs = _read_inputs(cfg, paths, [n for n in STAGES["evaluate"].reads if n not in labels])
    none = np.zeros(0, dtype=np.int64)
    return _stage(
        "evaluate", _evaluate_labels, cfg, paths, inputs,
        inputs["votes"].noisy[:, DETECTOR_IDS.index(detector)],
        Hits(none, none, none, none, none), _ensemble_info(None, none), detector,
    )


# -- report comparison ----------------------------------------------------


def strip_timestamp(report: dict) -> dict:
    """Copy of a report dict without its volatile timestamp field."""
    out = dict(report)
    out.pop("timestamp", None)
    return out


def reports_equal(path_a: str | Path, path_b: str | Path) -> bool:
    """Byte-level equality of two report files once timestamps are removed."""
    a = strip_timestamp(read_json(path_a))
    b = strip_timestamp(read_json(path_b))
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
