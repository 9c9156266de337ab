"""Verdict vocabulary shared by the four detectors and the board."""

from __future__ import annotations

from enum import Enum


class Verdict(Enum):
    NOISY = "noisy"
    CLEAN = "clean"


class Consensus(Enum):
    NOISY = "noisy"
    CLEAN = "clean"
    UNCERTAIN = "uncertain"


DETECTOR_IDS = ("NF1", "NF2", "NF3", "NF4")
