"""Layer 1: four noise detectors voting as a decision board.

Each detector is a pure function of immutable tables.  The board collects
one vote per detector per test rating and reduces them to a unanimous
consensus: all-noisy, all-clean, or uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..dataset import RatingsTable
from ..ioutil import atomic_write_columns, read_columns, read_csv_rows
from ..recsys import KnnConfig
from .nf1 import Nf1Result, nf1_classify_item, nf1_classify_user, nf1_detect
from .nf2 import Nf2Result, nf2_detect, nf2_rnd
from .nf3 import Nf3Result, nf3_detect
from .nf4 import FuzzyProfile, Nf4Result, manhattan, nf4_detect, nf4_fuzzify
from .verdict import DETECTOR_IDS, Consensus, Verdict

__all__ = [
    "BoardConfig", "BoardResult", "CONSENSUS", "Consensus", "Verdict", "Votes",
    "consensus", "venn_counts", "run_board", "write_votes", "read_votes",
    "nf1_detect", "nf1_classify_user", "nf1_classify_item",
    "nf2_detect", "nf2_rnd",
    "nf3_detect", "nf4_detect", "nf4_fuzzify", "manhattan", "FuzzyProfile",
    "DETECTOR_IDS",
]


@dataclass(frozen=True)
class BoardConfig:
    """Layer-1 keys: the detectors' cuts, thresholds and kNN settings."""

    nf1_cut_low: float = 2.5
    nf1_cut_high: float = 4.0
    nf1_majority: float = 0.5
    nf2_theta_heavy_medium: float = 0.075
    nf2_theta_light: float = 0.05
    nf2_rnd_cut: float = 0.5
    nf2_coherence_cut: float = 0.8
    nf3_k: int = 35
    nf3_min_overlap: int = 2
    nf3_significance_cap: int = 50
    nf3_th: float = 0.05
    nf4_delta1: float = 1.0
    nf4_delta2: float = 0.25

    def nf3_knn(self) -> KnnConfig:
        """NF3's kNN settings; raises ValueError on a count below 1."""
        return KnnConfig(self.nf3_k, self.nf3_min_overlap, self.nf3_significance_cap)


# Votes.consensus holds each rating's outcome as an int8 index into CONSENSUS.
CONSENSUS = (Consensus.NOISY, Consensus.CLEAN, Consensus.UNCERTAIN)


def consensus(noisy: np.ndarray) -> np.ndarray:
    """Unanimity per row of an (n, 4) noisy-vote matrix, as CONSENSUS codes:
    four Noisy votes -> Noisy, none -> Clean, else Uncertain."""
    noisy = np.asarray(noisy, dtype=bool)
    if noisy.ndim != 2 or noisy.shape[1] != len(DETECTOR_IDS):
        raise ValueError(f"expected one vote column per detector {DETECTOR_IDS}, got {noisy.shape}")
    n_noisy = noisy.sum(axis=1)
    return np.select([n_noisy == len(DETECTOR_IDS), n_noisy == 0], [0, 1], 2).astype(np.int8)


@dataclass(frozen=True, eq=False)
class Votes:
    """The board's votes, one row per voted rating in table order:
    noisy[k, d] is detector DETECTOR_IDS[d]'s Noisy flag on rating k and
    consensus[k] the CONSENSUS code of its four votes."""

    users: np.ndarray
    items: np.ndarray
    noisy: np.ndarray
    consensus: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def keys(self, rows: np.ndarray | slice = slice(None)) -> list[tuple[int, int]]:
        """(user_id, item_id) of the selected rows, in row order."""
        return list(zip(self.users[rows].tolist(), self.items[rows].tolist()))

    def where(self, outcome: Consensus) -> np.ndarray:
        """Row mask of the ratings whose consensus is outcome."""
        return self.consensus == CONSENSUS.index(outcome)


def _region_label(detectors: tuple[str, ...]) -> str:
    return "&".join(detectors) if detectors else "none"


def venn_counts(noisy: np.ndarray) -> dict[str, int]:
    """Counts per exact noisy-detector subset of an (n, 4) noisy-vote
    matrix; 'none' is the all-clean region."""
    masks = np.asarray(noisy, dtype=np.int64) @ (1 << np.arange(len(DETECTOR_IDS)))
    tally = np.bincount(masks, minlength=1 << len(DETECTOR_IDS))
    return {
        _region_label(combo): int(tally[sum(1 << DETECTOR_IDS.index(d) for d in combo)])
        for size in range(len(DETECTOR_IDS) + 1)
        for combo in combinations(DETECTOR_IDS, size)
    }


class BoardResult(NamedTuple):
    votes: Votes
    venn: dict[str, int]
    nf1: Nf1Result
    nf2: Nf2Result
    nf3: Nf3Result
    nf4: Nf4Result


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
    r1 = nf1_detect(
        test, (config.nf1_cut_low, config.nf1_cut_high), config.nf1_majority, context=context
    )
    r2 = nf2_detect(
        test,
        config.nf2_theta_heavy_medium,
        config.nf2_theta_light,
        config.nf2_rnd_cut,
        context=context,
        coherence_cut=config.nf2_coherence_cut,
    )
    r3 = nf3_detect(train, test, config.nf3_knn(), config.nf3_th)
    r4 = nf4_detect(test, config.nf4_delta1, config.nf4_delta2, context=context)
    noisy = np.column_stack([r1.noisy, r2.noisy, r3.noisy, r4.noisy])
    votes = Votes(test.users, test.items, noisy, consensus(noisy))
    return BoardResult(votes, venn_counts(noisy), r1, r2, r3, r4)


VOTES_HEADER = ("userId", "itemId", "nf1", "nf2", "nf3", "nf4", "consensus")
_VOTE = np.array([Verdict.CLEAN.value, Verdict.NOISY.value], dtype=object)  # by noisy flag
_OUTCOME = np.array([c.value for c in CONSENSUS], dtype=object)  # by CONSENSUS code
# Cells are read wider than any valid one, so a longer cell cannot be cut down to one.
_VOTES_DTYPE = np.dtype([("user", np.int64), ("item", np.int64), ("cells", "U16", (5,))])


def write_votes(votes: Votes, path: str | Path) -> None:
    atomic_write_columns(
        path,
        VOTES_HEADER,
        (votes.users, votes.items, _VOTE[votes.noisy.astype(np.intp)], _OUTCOME[votes.consensus]),
    )


def read_votes(path: str | Path) -> Votes:
    """Votes from a votes.csv.  A malformed row raises ValueError, and so
    does a consensus cell other than the unanimity of the row's votes."""
    rows = read_columns(path, VOTES_HEADER, _VOTES_DTYPE)
    if rows is not None:
        noisy, codes, bad = _check_votes(rows["cells"])
        if not bad.any():
            users, items = (np.ascontiguousarray(rows[name]) for name in ("user", "item"))
            return Votes(users, items, noisy, codes)
    return _read_vote_rows(path)


def _check_votes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(noisy, consensus codes, bad-row mask) of an (n, 5) array of the
    four vote cells and the consensus cell of each row."""
    votes = cells[:, :4]
    noisy = votes == Verdict.NOISY.value
    codes = consensus(noisy)
    bad = (~noisy & (votes != Verdict.CLEAN.value)).any(axis=1) | (cells[:, 4] != _OUTCOME[codes])
    return noisy, codes, bad


def _read_vote_rows(path: str | Path) -> Votes:
    """read_votes through csv.reader, for a file read_columns does not take:
    it reads the file or raises the error of its first bad row."""
    rows = read_csv_rows(path, VOTES_HEADER)
    cells = np.array(rows, dtype=str).reshape(-1, len(VOTES_HEADER))
    noisy, codes, bad = _check_votes(cells[:, 2:])
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{path}:{k + 2}: {cells[k, 2:].tolist()} are not four Verdicts and their unanimity"
        )
    return Votes(cells[:, 0].astype(np.int64), cells[:, 1].astype(np.int64), noisy, codes)
