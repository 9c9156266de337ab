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
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .board import CONSENSUS, BoardConfig, Votes, read_votes, run_board, write_votes
from .board.verdict import DETECTOR_IDS, Consensus, Verdict
from .dataset import (
    GenreMap,
    RatingsTable,
    Scale,
    SplitSpec,
    filter_min_activity,
    load_genres,
    load_ratings,
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
from .ensemble.features import build_feature_matrix, read_features, write_features
from .evaluation import (
    ACCURACY_METRICS,
    BASIS_RATINGS,
    BASIS_USERS,
    DeltaReport,
    UserEval,
    cluster_users,
    critical_groups,
    delta_points,
    ranking_metrics,
    serendipity,
    write_delta_csv,
    write_scatter_svg,
)
from .evaluation.deltas import _cluster_ndcg_means
from .evaluation.serendipity import FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL
from .ioutil import dump_json, read_json
from .recsys import MfModel, mf_train, recommend_topk, save_model
from .seeding import derive_seed
from .signature import (
    DENOMINATOR_GLOBAL_NOISE,
    DENOMINATOR_LAST_DAY,
    SignatureAction,
    SignatureHit,
    apply_signature_action,
    detect_optout,
    read_hits,
    utc_day,
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
        if not self.ratings_path:
            raise ConfigError("ratings_path is required")
        if not self.movies_path:
            raise ConfigError("movies_path is required: NF2 and serendipity need item genres")
        if not self.scale_min < self.scale_max:
            raise ConfigError("scale_min must be less than scale_max")
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
        if not all(math.isfinite(v) for v in (self.plane_a, self.plane_b)):
            raise ConfigError("plane_a and plane_b must be finite")


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
        raw = read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object of key-value pairs")
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


def _draw_other(rng: np.random.Generator, grid: np.ndarray, current: float) -> float:
    others = grid[grid != current]
    return float(others[rng.integers(len(others))])


def inject_noise(
    table: RatingsTable, rate: float, kind: NoiseKind, seed: int = 0
) -> tuple[RatingsTable, GroundTruthMask]:
    """Perturb an exact seeded share of the table and return the mask.

    uniform: each selected rating becomes a different grid value drawn
    uniformly.  flip: r -> r_max + r_min - r.  optout: the selection is
    over users, and every rating on a selected user's last active day is
    replaced by a fresh uniform grid draw.
    """
    if not 0.0 <= rate <= 0.5:
        raise ValueError(f"rate must be in [0, 0.5], got {rate}")
    rng = np.random.default_rng([seed, _SALT_INJECT[kind.value]])
    grid = table.scale.grid(0.5)
    rows = table.rows()
    changed: set[tuple[int, int]] = set()

    if kind is NoiseKind.OPTOUT_BURST:
        users = table.user_ids()
        n_sel = int(round(rate * len(users)))
        sel_users = sorted(users[i] for i in rng.permutation(len(users))[:n_sel])
        burst_keys: set[tuple[int, int]] = set()
        for user in sel_users:
            idx = table.user_rows(user)
            days = [utc_day(int(table.timestamps[k])) for k in idx]
            last = max(days)
            for k, day in zip(idx, days):
                if day == last:
                    burst_keys.add((user, int(table.items[k])))
        new_rows = []
        for u, i, v, t in rows:
            if (u, i) in burst_keys:
                v = _draw_other(rng, grid, v)
                changed.add((u, i))
            new_rows.append((u, i, v, t))
    else:
        n_sel = int(round(rate * len(rows)))
        sel = set(np.sort(rng.permutation(len(rows))[:n_sel]).tolist())
        new_rows = []
        for pos, (u, i, v, t) in enumerate(rows):
            if pos in sel:
                if kind is NoiseKind.FLIP:
                    v = table.scale.r_max + table.scale.r_min - v
                else:
                    v = _draw_other(rng, grid, v)
                changed.add((u, i))
            new_rows.append((u, i, v, t))

    out = RatingsTable(new_rows, table.scale, genres=table.genres)
    return out, GroundTruthMask(kind, frozenset(changed), rate, seed)


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


def read_mask(path: str | Path) -> GroundTruthMask:
    raw = read_json(path)
    return GroundTruthMask(
        NoiseKind(raw["kind"]),
        frozenset((int(u), int(i)) for u, i in raw["keys"]),
        float(raw["rate"]),
        int(raw["seed"]),
    )


# -- artifact layout ----------------------------------------------------


class RunPaths:
    def __init__(self, out_dir: str | Path, run_id: str):
        self.run_id = run_id
        self.base = Path(out_dir) / run_id
        self.splits = self.base / "splits"
        self.models = self.base / "models"
        self.manifest = self.base / "manifest.json"
        self.ingest = self.base / "ingest.json"
        self.train_csv = self.splits / "train.csv"
        self.detect_csv = self.splits / "detect.csv"
        self.eval_csv = self.splits / "eval.csv"
        self.votes = self.base / "votes.csv"
        self.venn = self.base / "venn.json"
        self.board_json = self.base / "board.json"
        self.features = self.base / "features.csv"
        self.ensemble_csv = self.base / "ensemble.csv"
        self.signature_csv = self.base / "signature.csv"
        self.report = self.base / "report.json"
        self.before_model = self.models / "before.json"
        self.after_model = self.models / "after.json"

    def ensure(self) -> None:
        self.splits.mkdir(parents=True, exist_ok=True)
        self.models.mkdir(parents=True, exist_ok=True)

    def scatter(self, pair: str) -> Path:
        return self.base / f"scatter-{pair}.svg"

    def deltas(self, pair: str) -> Path:
        return self.base / f"deltas-{pair}.csv"


def run_paths(cfg: PipelineConfig, mode: str = "run") -> RunPaths:
    run_id = cfg.run_id if cfg.run_id else f"{mode}-{config_hash(cfg)}"
    return RunPaths(cfg.out_dir, run_id)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConfigError, DataError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _require(path: Path, producer: str) -> None:
    if not path.exists():
        raise DataError(f"missing artifact {path}; run the {producer} stage first")


def _read(reader, path: Path, *args):
    """reader(path, *args), with the error of a malformed artifact raised as
    DataError: ValueError, or OverflowError for an id outside int64."""
    try:
        return reader(path, *args)
    except (ValueError, OverflowError) as exc:
        message = str(exc)
        raise DataError(message if str(path) in message else f"{path}: {message}") from exc


# -- stage bodies -------------------------------------------------------


def _load_genres(cfg: PipelineConfig) -> GenreMap:
    path = Path(cfg.movies_path)
    if not path.exists():
        raise DataError(f"movies file not found: {path}")
    try:
        return load_genres(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _load_split(cfg: PipelineConfig, path: Path, genres: GenreMap | None = None) -> RatingsTable:
    try:
        table = load_ratings(path, cfg.scale())
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return table if genres is None else table.with_genres(genres)


def stage_ingest(cfg: PipelineConfig) -> tuple[RatingsTable, dict]:
    """Load, dedupe, activity-filter, and attach genres."""
    path = Path(cfg.ratings_path)
    if not path.exists():
        raise DataError(f"ratings file not found: {path}")
    try:
        table = load_ratings(path, cfg.scale())
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    genres = _load_genres(cfg)
    loaded = len(table)
    dropped = table.dropped_duplicates
    table = filter_min_activity(table, cfg.min_activity, cfg.activity_by)
    if len(table) == 0:
        raise DataError(
            f"no ratings left after min_activity={cfg.min_activity} filter on {cfg.activity_by}s"
        )
    table = table.with_genres(genres)
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


def stage_split(
    cfg: PipelineConfig, table: RatingsTable, paths: RunPaths
) -> tuple[RatingsTable, RatingsTable, RatingsTable]:
    fractions = (cfg.train_fraction, cfg.detect_fraction, cfg.eval_fraction)
    train, detect, eval_t = split_three(table, fractions, cfg.seed)
    train.to_csv(paths.train_csv)
    detect.to_csv(paths.detect_csv)
    eval_t.to_csv(paths.eval_csv)
    if len(detect) == 0 or len(eval_t) == 0:
        raise DataError("detect or eval split is empty; dataset too small for the fractions")
    return train, detect, eval_t


def stage_board(
    cfg: PipelineConfig,
    train: RatingsTable,
    detect: RatingsTable,
    paths: RunPaths,
) -> dict:
    """Layer 1 plus the feature matrix Layer 2 will consume; everything
    persisted so the ensemble stage can run without recomputation."""
    context = train.merged(detect) if len(train) else detect
    board = run_board(train, detect, cfg, context=context)
    X = build_feature_matrix(detect, context, board)
    write_votes(board.votes, paths.votes)
    dump_json(board.venn, paths.venn)
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


def stage_ensemble(
    cfg: PipelineConfig, votes: Votes, X: np.ndarray, paths: RunPaths
) -> np.ndarray:
    """Layer 2: arbitrate every Uncertain rating with the configured
    learner, trained on the unanimous ratings; X holds one feature row per
    vote row.  Returns the Noisy flags of the Uncertain rows, in row order."""
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
    return classified


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


def stage_signature(
    cfg: PipelineConfig, detect: RatingsTable, noisy: np.ndarray, paths: RunPaths
) -> list[SignatureHit]:
    hits = detect_optout(detect, noisy, cfg.signature_threshold, cfg.signature_denominator)
    write_hits(hits, cfg.action(), paths.signature_csv)
    return hits


def _clean_corpus(
    corpus: RatingsTable,
    votes: Votes,
    noisy: np.ndarray,
    hits: list[SignatureHit],
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


def _evaluate_arm(
    model: MfModel,
    corpus: RatingsTable,
    eval_t: RatingsTable,
    universe: Sequence[int],
    assignment: Mapping[int, int],
    genres: GenreMap,
    cfg: PipelineConfig,
) -> list[UserEval]:
    out: list[UserEval] = []
    for user in universe:
        recs = recommend_topk(model, corpus, user, cfg.top_k)
        rows = eval_t.user_rows(user)
        relevant = {
            int(eval_t.items[k])
            for k in rows
            if float(eval_t.values[k]) >= cfg.relevance_threshold
        }
        rm = ranking_metrics(recs, relevant, cfg.top_k)
        history = {int(corpus.items[k]) for k in corpus.user_rows(user)}
        ser = serendipity(recs, history, relevant, genres, cfg.serendipity_formula)
        out.append(
            UserEval(user, rm.ndcg, rm.precision, rm.recall, rm.f1, ser, int(assignment[user]))
        )
    return out


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
    save_model(before, paths.before_model)
    save_model(after, paths.after_model)

    before_users = set(corpus.user_ids())
    after_users = set(cleaned.user_ids())
    eval_users = eval_t.user_ids()
    universe = [u for u in eval_users if u in before_users and u in after_users]
    excluded = sorted(u for u in eval_users if u not in after_users or u not in before_users)
    if not universe:
        raise DataError("no users remain evaluable in the held-out fold")

    vectors = {u: before.user_vector(u) for u in universe}
    assign = cluster_users(vectors, k=cfg.clusters_k, seed=derive_seed(cfg.seed, _SALT_CLUSTER))
    before_evals = _evaluate_arm(before, corpus, eval_t, universe, assign.assignment, genres, cfg)
    after_evals = _evaluate_arm(after, cleaned, eval_t, universe, assign.assignment, genres, cfg)
    weights = {u: len(eval_t.user_rows(u)) for u in universe}

    reports: dict[str, DeltaReport] = {}
    pair_sections: dict[str, dict] = {}
    for metric in ACCURACY_METRICS:
        rep = delta_points(
            before_evals,
            after_evals,
            metric,
            (cfg.plane_a, cfg.plane_b),
            basis=cfg.percent_basis,
            weights=weights,
        )
        reports[rep.pair] = rep
        write_delta_csv(paths.deltas(rep.pair), rep.points)
        write_scatter_svg(paths.scatter(rep.pair), rep.points, rep.plane, rep.pair)
        q_counts: dict[str, int] = {"I": 0, "II": 0, "III": 0, "IV": 0, "Origin": 0}
        for p in rep.points:
            q_counts[p.quadrant.value] += 1
        pair_sections[rep.pair] = {
            "percent_positive": rep.percent_positive,
            "quadrant_counts": q_counts,
            "boundary_points": sum(1 for p in rep.points if p.boundary),
        }

    section = {
        "clusters_k": assign.k,
        "top_k": cfg.top_k,
        "plane": [cfg.plane_a, cfg.plane_b],
        "universe_users": len(universe),
        "excluded_users": excluded,
        "global_before": reports["serendipity-ndcg"].global_before,
        "global_after": reports["serendipity-ndcg"].global_after,
        "critical_group_pct_before": critical_groups(_cluster_ndcg_means(before_evals)),
        "critical_group_pct_after": critical_groups(_cluster_ndcg_means(after_evals)),
        "pairs": pair_sections,
    }
    return reports, section


# -- report assembly ----------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Enum):
        return obj.value
    return obj


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


def _assemble_report(
    cfg: PipelineConfig,
    mode: str,
    detector: str | None,
    counts: dict,
    split_sizes: dict,
    board_section: dict,
    ens_info: dict,
    hits: list[SignatureHit],
    removal: dict,
    eval_section: dict,
    ground_truth: dict | None,
) -> dict:
    report = {
        **_provenance(cfg),
        "mode": mode,
        "detector": detector,
        "seed": cfg.seed,
        "counts": {**counts, **split_sizes},
        "board": board_section,
        "ensemble": ens_info,
        "signature": {
            "flagged_users": sorted(h.user_id for h in hits),
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
    if ground_truth is not None:
        report["ground_truth"] = ground_truth
    return report


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
    return read_mask(mpath)


# -- stages ---------------------------------------------------------------
#
# Each stage reads only artifacts persisted by earlier stages, so a run
# executes end to end (`run_framework`) or one stage per command against the
# same run directory, and both give bit-identical artifacts.  The manifest
# written by ingest pins the run directory to one config.


class RunResult(NamedTuple):
    report: DeltaReport
    reports: dict[str, DeltaReport]
    report_dict: dict
    paths: RunPaths
    votes: Votes
    noisy: np.ndarray
    hits: list[SignatureHit]


_INPUT_FILES = ("ratings_path", "movies_path")


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    """sha256 of each input file the run reads, keyed by its config key."""
    digests = {}
    for key in _INPUT_FILES:
        path = Path(getattr(cfg, key))
        if not path.exists():
            raise DataError(f"{key} file not found: {path}")
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _check_manifest(cfg: PipelineConfig, paths: RunPaths) -> None:
    manifest = _read(read_json, paths.manifest)
    built = manifest["config_hash"]
    if built != config_hash(cfg):
        raise ConfigError(
            f"run directory {paths.base} was built with config_hash {built}, but this "
            f"config has config_hash {config_hash(cfg)}; changed settings need a new run_id"
        )
    recorded = manifest.get("inputs", {})
    for key, digest in _input_digests(cfg).items():
        if recorded.get(key) != digest:
            raise ConfigError(
                f"{key} file {getattr(cfg, key)} changed since run directory {paths.base} "
                f"was built (sha256 {recorded.get(key)}, now {digest}); "
                "changed inputs need a new run_id"
            )


def _resume(cfg: PipelineConfig, paths: RunPaths, needs: Mapping[Path, str]) -> None:
    """Check that a stage's input artifacts exist (needs maps each to the
    stage producing it) and that the run directory was built with cfg."""
    for path, producer in needs.items():
        _require(path, producer)
    _require(paths.manifest, "ingest")
    _check_manifest(cfg, paths)


def cli_ingest(cfg: PipelineConfig, paths: RunPaths) -> dict:
    cfg.validate()
    if paths.manifest.exists():
        _check_manifest(cfg, paths)
    # Hashed before reading: an input edited during ingest then fails the
    # next stage's check instead of passing with splits of unknown content.
    inputs = _input_digests(cfg)
    table, counts = _stage("ingest", stage_ingest, cfg)
    paths.ensure()
    dump_json(counts, paths.ingest)
    _stage("split", stage_split, cfg, table, paths)
    dump_json({**_provenance(cfg), "inputs": inputs}, paths.manifest)
    return counts


def cli_detect(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _resume(cfg, paths, {paths.train_csv: "ingest", paths.detect_csv: "ingest"})
    genres = _load_genres(cfg)
    train = _load_split(cfg, paths.train_csv, genres)
    detect = _load_split(cfg, paths.detect_csv, genres)
    return _stage("board", stage_board, cfg, train, detect, paths)


def cli_ensemble(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _resume(cfg, paths, {paths.votes: "detect", paths.features: "detect"})
    votes = _read(read_votes, paths.votes)
    users, items, X = _read(read_features, paths.features)
    if not (np.array_equal(users, votes.users) and np.array_equal(items, votes.items)):
        raise DataError(f"{paths.features} does not list the ratings of {paths.votes} row for row")
    classified = _stage("ensemble", stage_ensemble, cfg, votes, X, paths)
    return _ensemble_info(cfg.ensemble_variant, classified)


def _read_labels(
    cfg: PipelineConfig, paths: RunPaths, detect: RatingsTable, detector: str | None = None
) -> tuple[Votes, np.ndarray]:
    """The votes and the ensemble's Noisy flags, checked to line up: votes.csv
    lists the detect split's ratings row for row, and ensemble.csv the
    Uncertain ones under this run's variant (none in a baseline run, which
    classifies nothing)."""
    votes = _read(read_votes, paths.votes)
    users, items, classified, _ = _read(
        read_classification, paths.ensemble_csv, cfg.ensemble_variant
    )
    if not (np.array_equal(votes.users, detect.users) and np.array_equal(votes.items, detect.items)):
        raise DataError(f"{paths.votes} does not list the ratings of {paths.detect_csv} row for row")
    uncertain = votes.where(Consensus.UNCERTAIN) & (detector is None)
    if not (np.array_equal(users, votes.users[uncertain])
            and np.array_equal(items, votes.items[uncertain])):
        raise DataError(
            f"{paths.ensemble_csv} does not list the Uncertain ratings of {paths.votes} row for row"
        )
    return votes, classified


def cli_signature(cfg: PipelineConfig, paths: RunPaths) -> list[SignatureHit]:
    _resume(
        cfg, paths,
        {paths.detect_csv: "ingest", paths.votes: "detect", paths.ensemble_csv: "ensemble"},
    )
    detect = _load_split(cfg, paths.detect_csv)
    votes, classified = _read_labels(cfg, paths, detect)
    noisy = _final_noisy(votes, classified)
    return _stage("signature", stage_signature, cfg, detect, noisy, paths)


def cli_evaluate(cfg: PipelineConfig, paths: RunPaths, detector: str | None = None) -> RunResult:
    """Remove, retrain, evaluate and write the report.  With a detector,
    that detector's verdicts alone are the labels (a baseline run)."""
    _resume(
        cfg, paths,
        {
            paths.train_csv: "ingest", paths.detect_csv: "ingest", paths.eval_csv: "ingest",
            paths.ingest: "ingest", paths.board_json: "detect", paths.votes: "detect",
            paths.ensemble_csv: "ensemble", paths.signature_csv: "signature",
        },
    )
    genres = _load_genres(cfg)
    train = _load_split(cfg, paths.train_csv)
    detect = _load_split(cfg, paths.detect_csv)
    eval_t = _load_split(cfg, paths.eval_csv)
    counts = _read(read_json, paths.ingest)
    board_section = _read(read_json, paths.board_json)
    votes, classified = _read_labels(cfg, paths, detect, detector)
    hits, action = _read(read_hits, paths.signature_csv)
    if detector is None:
        noisy = _final_noisy(votes, classified)
        ens_info = _ensemble_info(cfg.ensemble_variant, classified)
    else:
        noisy = votes.noisy[:, DETECTOR_IDS.index(detector)]
        ens_info = _ensemble_info(None, classified)

    corpus = train.merged(detect)
    cleaned, removal = _clean_corpus(corpus, votes, noisy, hits, action or cfg.action())
    reports, eval_section = _stage(
        "evaluate", stage_evaluate, cfg, corpus, cleaned, eval_t, genres, paths
    )
    mask = _load_mask_if_configured(cfg)
    gt = None
    if mask is not None:
        # ground_truth_section keeps (user, item)-keyed labels: perfbench's noise_quality passes them.
        labels = {k: Verdict.NOISY if f else Verdict.CLEAN for k, f in zip(votes.keys(), noisy)}
        gt = ground_truth_section(mask, votes, labels)
    split_sizes = {"train": len(train), "detect": len(detect), "eval": len(eval_t)}
    report_dict = _assemble_report(
        cfg, "run" if detector is None else "baseline", detector, counts, split_sizes,
        board_section, ens_info, hits, removal, eval_section, gt,
    )
    dump_json(_jsonable(report_dict), paths.report)
    return RunResult(
        reports["serendipity-ndcg"], reports, report_dict, paths, votes, noisy, hits
    )


def run_framework(cfg: PipelineConfig) -> RunResult:
    """Full three-layer run: board consensus, ensemble arbitration of the
    Uncertain set, opt-out signature, removal, retrain, evaluate."""
    paths = run_paths(cfg)
    for stage in (cli_ingest, cli_detect, cli_ensemble, cli_signature):
        stage(cfg, paths)
    return cli_evaluate(cfg, paths)


def run_baseline(cfg: PipelineConfig, detector: str) -> RunResult:
    """Single-detector run: that detector's Noisy verdicts alone drive
    removal; the evaluation protocol is identical to the full framework."""
    if detector not in DETECTOR_IDS:
        raise ConfigError(f"detector must be one of {DETECTOR_IDS}, got {detector!r}")
    paths = run_paths(cfg, f"baseline-{detector.lower()}")
    cli_ingest(cfg, paths)
    cli_detect(cfg, paths)
    none = np.zeros(0, dtype=np.int64)
    write_classification(none, none, none, none, cfg.ensemble_variant, paths.ensemble_csv)
    write_hits([], cfg.action(), paths.signature_csv)
    return cli_evaluate(cfg, paths, detector)


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
