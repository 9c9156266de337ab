"""Time Layer 2's variants on the MovieLens-sized stand-in's features.

    PYTHONPATH=src python scripts/layer2_standin.py [OUT_DIR [BASELINE_DIR]]

Builds the stand-in (noisegate.synth.movielens_sized_tables(seed=0)), runs
the staged `ingest` and `detect` commands on it with the default config,
then trains all seven variants on the board's unanimous ratings with seed
11 and classifies its Uncertain ones.  Prints one line per variant: train
and classify seconds (perf_counter), Noisy labels, and the sha256 of the
variant's classification CSV.  With OUT_DIR the run directory and the CSVs
(<variant>.csv) are kept there; else they go to a temporary directory.
With BASELINE_DIR, the OUT_DIR of a run on another checkout, each line
also says whether the CSV differs from the one there, and in how many
score and label cells, so one command lists every CSV that changes.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from noisegate.board import Consensus, read_votes
from noisegate.ensemble import (
    VARIANTS,
    classify_uncertain,
    read_classification,
    train_el,
    write_classification,
)
from noisegate.ensemble.features import read_features
from noisegate.pipeline import PipelineConfig, run_paths, run_stage
from noisegate.synth import movielens_sized_tables, write_dataset_csvs

SEED = 11


def compare(csv: Path, baseline: Path, variant: str) -> str:
    """How csv differs from the baseline CSV of the same name."""
    if csv.read_bytes() == baseline.read_bytes():
        return "same"
    got, want = read_classification(csv, variant), read_classification(baseline, variant)
    if any(not np.array_equal(a, b) for a, b in zip(got[:2], want[:2])):
        return "CHANGED: other ratings"
    scores = np.count_nonzero(got[3].view(np.int64) != want[3].view(np.int64))
    drift = float(np.max(np.abs(got[3] - want[3]), initial=0.0))
    labels = np.count_nonzero(got[2] != want[2])
    return f"CHANGED: {scores} scores (max |diff| {drift:.3g}), {labels} labels"


def main(out: Path, baseline: Path | None = None) -> None:
    table, genres = movielens_sized_tables(seed=0)
    write_dataset_csvs(table, genres, out / "inputs")
    cfg = PipelineConfig(
        ratings_path=str(out / "inputs" / "ratings.csv"),
        movies_path=str(out / "inputs" / "movies.csv"),
        out_dir=str(out / "runs"),
    )
    paths = run_paths(cfg)
    for stage in ("ingest", "detect"):
        run_stage(stage, cfg, paths)
    votes = read_votes(paths.votes)
    X = read_features(paths.features)[2]
    uncertain = votes.where(Consensus.UNCERTAIN)
    y = votes.where(Consensus.NOISY)[~uncertain].astype(np.int64)
    X_lab, X_unc = X[~uncertain], X[uncertain]
    print(f"labeled {len(y)} ({int(y.sum())} noisy), uncertain {len(X_unc)}")
    for variant in VARIANTS:
        start = time.perf_counter()
        model = train_el(X_lab, y, X_unc, PipelineConfig(ensemble_variant=variant), SEED)
        trained = time.perf_counter()
        noisy, scores = classify_uncertain(model, X_unc)
        done = time.perf_counter()
        csv = out / f"{variant}.csv"
        write_classification(
            votes.users[uncertain], votes.items[uncertain], noisy, scores, variant, csv
        )
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()[:16]
        against = f"  {compare(csv, baseline / csv.name, variant)}" if baseline else ""
        print(
            f"{variant:6s} train {trained - start:8.3f} s  classify {done - trained:7.3f} s  "
            f"noisy {int(noisy.sum()):5d}  sha256 {digest}{against}",
            flush=True,
        )


if __name__ == "__main__":
    if len(sys.argv) > 3:
        sys.exit(__doc__)
    if len(sys.argv) >= 2:
        main(Path(sys.argv[1]), Path(sys.argv[2]) if len(sys.argv) == 3 else None)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
