"""Verdict vocabulary and array helpers shared by the four detectors and the board."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np


class Verdict(Enum):
    NOISY = "noisy"
    CLEAN = "clean"


class Consensus(Enum):
    NOISY = "noisy"
    CLEAN = "clean"
    UNCERTAIN = "uncertain"


DETECTOR_IDS = ("NF1", "NF2", "NF3", "NF4")


class VoteSet(NamedTuple):
    key: tuple[int, int]
    votes: dict[str, Verdict]
    consensus: Consensus


_BY_FLAG = np.array([Verdict.CLEAN, Verdict.NOISY], dtype=object)


def verdict_map(keys: list[tuple[int, int]], noisy: np.ndarray) -> dict[tuple[int, int], Verdict]:
    """key -> Noisy where the flag is set, else Clean."""
    return dict(zip(keys, _BY_FLAG[np.asarray(noisy, dtype=np.intp)].tolist()))


def profile_rows(
    test_ids: np.ndarray, test_values: np.ndarray, ctx_ids: np.ndarray, ctx_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, values) of the rows each test id is profiled over: its context
    rows, or its test rows when the context lacks it, in row order."""
    keep = np.isin(ctx_ids, test_ids)
    extra = ~np.isin(test_ids, ctx_ids)
    return (
        np.concatenate([ctx_ids[keep], test_ids[extra]]),
        np.concatenate([ctx_values[keep], test_values[extra]]),
    )
