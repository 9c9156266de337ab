"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on a shared machine a
# multi-threaded BLAS pool competing with other busy processes made one ALS
# fit ten times slower.  An explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from noisegate.board.verdict import Verdict  # noqa: E402
from noisegate.dataset import GenreMap, RatingsTable, Scale  # noqa: E402
from noisegate.synth import planted_tables  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_DIR = REPO_ROOT / "data" / "mini"

# Criterion number -> short description, used by the terminal summary hook.
ACCEPTANCE_CRITERIA = {
    1: "partition & coverage on the bundled mini dataset (< 1 min)",
    2: "formula oracles, >= 10 fixtures per operation at 1e-9",
    3: "uniform-noise recovery: consensus precision >= detector mean (5 seeds)",
    4: "opt-out signature: recall >= 0.9, FPR <= 0.05 (5 seeds)",
    5: "ensemble contracts: OOB, bagging reduction, EIF ordering, GBT loss",
    6: "evaluation invariants: inertia, plane rescaling, bounds, serendipity zeros",
    7: "byte-identical report.json on rerun, MovieLens-sized input (< 10 min)",
    8: "directional sanity: detector flag ordering (informational)",
}

# Populated by acceptance tests that want extra text in the summary line.
ACCEPTANCE_INFO: dict[int, str] = {}


def make_table(
    rows: list[tuple[int, int, float, int]],
    genres: GenreMap | None = None,
    scale: Scale = Scale(),
) -> RatingsTable:
    """Hand-built table helper for small fixtures."""
    return RatingsTable(rows, scale, genres=genres)


def by_key(table: RatingsTable, column) -> dict[tuple[int, int], object]:
    """A detector's per-row output over table, looked up by (user, item) key."""
    return dict(zip(table.keys(), column.tolist()))


def noisy_flags(table: RatingsTable, labels) -> np.ndarray:
    """Noisy flag per table row from a (user, item) -> Verdict mapping."""
    return np.array([labels[key] is Verdict.NOISY for key in table.keys()], dtype=bool)


def make_genres(mapping: dict[int, tuple[str, ...]], vocabulary: tuple[str, ...]) -> GenreMap:
    import numpy as np

    index = {g: i for i, g in enumerate(vocabulary)}
    vectors = {}
    for item, names in mapping.items():
        v = np.zeros(len(vocabulary))
        for name in names:
            v[index[name]] = 1.0
        vectors[item] = v
    return GenreMap(vectors, vocabulary)


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    assert MINI_DIR.joinpath("ratings.csv").exists(), "bundled mini dataset missing"
    return MINI_DIR


@pytest.fixture(scope="session")
def planted_small():
    """Small planted dataset shared by integration tests (table, genres)."""
    table, genres = planted_tables(
        users=60, items=120, factors=6, seed=2024, ratings_per_user=(25, 50)
    )
    return table.with_genres(genres), genres


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of every run."""
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tail = nodeid.split("test_criterion_", 1)[1]
            digits = ""
            for ch in tail:
                if ch.isdigit():
                    digits += ch
                else:
                    break
            if not digits:
                continue
            n = int(digits)
            label = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}[status]
            # A criterion split over several tests fails as a whole if any part fails.
            if outcomes.get(n) != "FAIL":
                outcomes[n] = label
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(ACCEPTANCE_CRITERIA):
        label = outcomes.get(n, "NOT RUN")
        line = f"criterion {n}: {label} - {ACCEPTANCE_CRITERIA[n]}"
        extra = ACCEPTANCE_INFO.get(n)
        if extra:
            line += f" [{extra}]"
        terminalreporter.write_line(line)
