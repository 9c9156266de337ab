"""The benchmark's workloads and the inputs each one is given.

Every workload is the planted-factor generator of ``noisegate.synth`` at a
size at which one pass takes 6-8 seconds on a 2-core machine (see
NOTES.md for the full-size figures and why they do not fit the run budget).
Per-user activity ranges are kept narrow so that the total rating count,
and with it the pass time, barely changes from seed to seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

STAGED = ("ingest", "detect", "ensemble", "signature")
RUN = ("run",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    items: int
    ratings_per_user: tuple[int, int]
    commands: tuple[str, ...]
    variant: str = "EL3"
    noise_rate: float = 0.0  # share of ratings replaced by a uniform draw

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        fields = json.loads(text)
        fields["ratings_per_user"] = tuple(fields["ratings_per_user"])
        fields["commands"] = tuple(fields["commands"])
        return cls(**fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-ml",
            "one default `noisegate run` at the stand-in's density: MF training dominates "
            "and it is the only workload that runs evaluation",
            users=128, items=800, ratings_per_user=(80, 100), commands=RUN,
        ),
        Workload(
            "detect-dense",
            "staged ingest, detect, ensemble, signature on a dense table (~125 ratings per "
            "item): the board's kNN and similarity dominate; each stage re-reads artifacts",
            users=700, items=560, ratings_per_user=(80, 120), commands=STAGED,
        ),
        Workload(
            "noisy-el2",
            "staged path with 10% uniform noise and EL2 stacking: the ensemble dominates "
            "and injected ground truth guards detection quality",
            users=280, items=1500, ratings_per_user=(140, 180), commands=STAGED,
            variant="EL2", noise_rate=0.10,
        ),
    )
}

RUN_ID = "pass"


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Generate the workload's CSVs (and noise mask) from the seed, and the
    config the program under test receives.  Returns a small summary."""
    from noisegate import pipeline, synth

    out_dir.mkdir(parents=True, exist_ok=True)
    table, genres = synth.planted_tables(
        users=workload.users,
        items=workload.items,
        ratings_per_user=workload.ratings_per_user,
        seed=seed,
    )
    if workload.noise_rate:
        table, mask = pipeline.inject_noise(
            table, workload.noise_rate, pipeline.NoiseKind.UNIFORM_REPLACE, seed
        )
        pipeline.write_mask(mask, out_dir / "mask.json")
    synth.write_dataset_csvs(table, genres, out_dir)
    config = {
        "ratings_path": str(out_dir / "ratings.csv"),
        "movies_path": str(out_dir / "movies.csv"),
        "out_dir": str(out_dir / "out"),
        "run_id": RUN_ID,
    }
    if workload.variant != "EL3":
        config["ensemble_variant"] = workload.variant
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"ratings": len(table)}
