"""noisegate: three-layer natural-noise management for rating data.

Layer 1 is a board of four complementary noise detectors whose unanimous
votes label each rating Noisy or Clean; disagreements form an Uncertain
set.  Layer 2 arbitrates that set with a configurable ensemble learner.
Layer 3 scans the labeled stream for opt-out obfuscation patterns and
flags the users behind them.  Removal then produces a cleaned training
corpus, and a two-dimensional evaluation (group-validated ranking
accuracy x serendipity) quantifies the before/after impact per user.
"""

from .board import BoardConfig, BoardResult, run_board
from .board.verdict import Consensus, Verdict
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
from .ensemble import EnsembleConfig, classify_uncertain, train_el
from .evaluation import (
    ArmEval,
    DeltaReport,
    Quadrant,
    cluster_users,
    critical_groups,
    delta_points,
    ranking_metrics,
    serendipity,
)
from .pipeline import (
    GroundTruthMask,
    NoiseKind,
    PipelineConfig,
    RunResult,
    config_from_dict,
    inject_noise,
    load_config,
    run_baseline,
    run_framework,
)
from .recsys import KnnConfig, MfModel, knn_predict, mf_train, recommend_topk
from .signature import Hits, SignatureAction, apply_signature_action, detect_optout

__version__ = "0.1.0"

__all__ = [
    "ArmEval",
    "BoardConfig",
    "BoardResult",
    "Consensus",
    "DeltaReport",
    "EnsembleConfig",
    "GenreMap",
    "GroundTruthMask",
    "Hits",
    "KnnConfig",
    "MfModel",
    "NoiseKind",
    "PipelineConfig",
    "Quadrant",
    "RatingsTable",
    "RunResult",
    "Scale",
    "SignatureAction",
    "SplitSpec",
    "Verdict",
    "apply_signature_action",
    "classify_uncertain",
    "cluster_users",
    "config_from_dict",
    "critical_groups",
    "delta_points",
    "detect_optout",
    "filter_min_activity",
    "inject_noise",
    "knn_predict",
    "load_config",
    "load_genres",
    "load_ratings",
    "mf_train",
    "ranking_metrics",
    "recommend_topk",
    "run_baseline",
    "run_board",
    "run_framework",
    "serendipity",
    "split_train_test",
    "train_el",
    "__version__",
]
