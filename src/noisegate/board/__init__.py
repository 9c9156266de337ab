"""Layer 1: four noise detectors voting as a decision board.

Each detector is a pure function of immutable tables.  The board collects
one vote per detector per test rating and reduces them to a unanimous
consensus: all-noisy, all-clean, or uncertain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import combinations, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..dataset import RatingsTable
from ..ioutil import atomic_write_csv
from ..recsys import KnnConfig
from .nf1 import Nf1Result, nf1_classify_item, nf1_classify_user, nf1_detect
from .nf2 import Nf2Result, nf2_detect, nf2_rnd
from .nf3 import Nf3Result, nf3_detect
from .nf4 import FuzzyProfile, Nf4Result, manhattan, nf4_detect, nf4_fuzzify
from .verdict import DETECTOR_IDS, Consensus, Verdict, VoteSet

__all__ = [
    "BoardConfig", "BoardResult", "Consensus", "Verdict", "VoteSet",
    "consensus", "venn_counts", "run_board", "write_votes", "read_votes",
    "nf1_detect", "nf1_classify_user", "nf1_classify_item",
    "nf2_detect", "nf2_rnd",
    "nf3_detect", "nf4_detect", "nf4_fuzzify", "manhattan", "FuzzyProfile",
    "DETECTOR_IDS",
]


@dataclass(frozen=True)
class BoardConfig:
    nf1_cuts: tuple[float, float] = (2.5, 4.0)
    nf1_majority: float = 0.5
    nf2_theta_heavy_medium: float = 0.075
    nf2_theta_light: float = 0.05
    nf2_rnd_cut: float = 0.5
    nf2_coherence_cut: float = 0.8
    nf3_knn: KnnConfig = field(default_factory=KnnConfig)
    nf3_th: float = 0.05
    nf4_delta1: float = 1.0
    nf4_delta2: float = 0.25


def consensus(votes: dict[str, Verdict]) -> Consensus:
    """Unanimous noisy -> Noisy, unanimous clean -> Clean, else Uncertain."""
    missing = [d for d in DETECTOR_IDS if d not in votes]
    if missing or len(votes) != len(DETECTOR_IDS):
        raise ValueError(f"expected votes from exactly {DETECTOR_IDS}, got {sorted(votes)}")
    values = [votes[d] for d in DETECTOR_IDS]
    if all(v is Verdict.NOISY for v in values):
        return Consensus.NOISY
    if all(v is Verdict.CLEAN for v in values):
        return Consensus.CLEAN
    return Consensus.UNCERTAIN


def _region_label(detectors: tuple[str, ...]) -> str:
    return "&".join(detectors) if detectors else "none"


def _noisy_masks(columns: list[list[Verdict]]) -> np.ndarray:
    """Per rating, from one verdict column per detector: bit d set when
    detector d voted Noisy."""
    noisy = np.array(columns, dtype=object).reshape(len(DETECTOR_IDS), -1) == Verdict.NOISY
    return (noisy.astype(np.int64) << np.arange(len(DETECTOR_IDS))[:, None]).sum(axis=0)


def _venn_from_masks(masks: np.ndarray) -> dict[str, int]:
    tally = np.bincount(masks, minlength=1 << len(DETECTOR_IDS)).tolist()
    return {
        _region_label(combo): tally[sum(1 << DETECTOR_IDS.index(d) for d in combo)]
        for size in range(len(DETECTOR_IDS) + 1)
        for combo in combinations(DETECTOR_IDS, size)
    }


def venn_counts(votesets: list[VoteSet]) -> dict[str, int]:
    """Counts per exact noisy-detector subset; 'none' is the all-clean region."""
    return _venn_from_masks(_noisy_masks([[vs.votes[d] for vs in votesets] for d in DETECTOR_IDS]))


class BoardResult(NamedTuple):
    votesets: list[VoteSet]
    venn: dict[str, int]
    nf1: Nf1Result
    nf2: Nf2Result
    nf3: Nf3Result
    nf4: Nf4Result

    def labels(self) -> dict[tuple[int, int], Consensus]:
        return {vs.key: vs.consensus for vs in self.votesets}

    def keys_with_consensus(self, value: Consensus) -> list[tuple[int, int]]:
        return [vs.key for vs in self.votesets if vs.consensus is value]


def run_board(
    train: RatingsTable,
    test: RatingsTable,
    config: BoardConfig = BoardConfig(),
    context: RatingsTable | None = None,
) -> BoardResult:
    """Run all four detectors on the test table and reduce votes to consensus.

    Detector profiles (classes, groups, fuzzy aggregates) are computed over
    `context`, train + test unless given, so every verdict uses all evidence
    available at detection time; the kNN detector predicts strictly from train.
    """
    if context is None:
        context = train.merged(test) if len(train) else test
    r1 = nf1_detect(test, config.nf1_cuts, config.nf1_majority, context=context)
    r2 = nf2_detect(
        test,
        config.nf2_theta_heavy_medium,
        config.nf2_theta_light,
        config.nf2_rnd_cut,
        context=context,
        coherence_cut=config.nf2_coherence_cut,
    )
    r3 = nf3_detect(train, test, config.nf3_knn, config.nf3_th)
    r4 = nf4_detect(test, config.nf4_delta1, config.nf4_delta2, context=context)
    keys = test.keys()
    columns = [list(map(r.verdicts.__getitem__, keys)) for r in (r1, r2, r3, r4)]
    masks = _noisy_masks(columns)
    # consensus(): all four Noisy -> Noisy, none -> Clean, else Uncertain
    outcome = np.where(masks == (1 << len(DETECTOR_IDS)) - 1, 0, np.where(masks == 0, 1, 2))
    votes = map(dict, map(zip, repeat(DETECTOR_IDS), zip(*columns)))
    votesets = list(map(VoteSet, keys, votes, _CONSENSUS[outcome].tolist()))
    return BoardResult(votesets, _venn_from_masks(masks), r1, r2, r3, r4)


_CONSENSUS = np.array([Consensus.NOISY, Consensus.CLEAN, Consensus.UNCERTAIN], dtype=object)


VOTES_HEADER = ("userId", "itemId", "nf1", "nf2", "nf3", "nf4", "consensus")


def write_votes(votesets: list[VoteSet], path: str | Path) -> None:
    atomic_write_csv(
        path,
        VOTES_HEADER,
        (
            [vs.key[0], vs.key[1], *(vs.votes[d].value for d in DETECTOR_IDS), vs.consensus.value]
            for vs in votesets
        ),
    )


def read_votes(path: str | Path) -> list[VoteSet]:
    votesets: list[VoteSet] = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != VOTES_HEADER:
            raise ValueError(f"{path}: expected header {','.join(VOTES_HEADER)}")
        for row in reader:
            key = (int(row[0]), int(row[1]))
            votes = {d: Verdict(row[2 + k]) for k, d in enumerate(DETECTOR_IDS)}
            votesets.append(VoteSet(key, votes, Consensus(row[6])))
    return votesets
