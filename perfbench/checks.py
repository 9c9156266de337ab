"""Output checks on one pass's artifacts, and the artifact digest.

The checks read the CSV and JSON artifacts with the standard library only,
so a defect in the program's own readers cannot hide a defect in what it
wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

DETECTORS = 4


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [r for r in rows if r]


def _keys(path: Path) -> list[tuple[int, int]]:
    return [(int(r[0]), int(r[1])) for r in _rows(path)]


def _unanimity(votes: list[str]) -> str:
    if all(v == "noisy" for v in votes):
        return "noisy"
    if all(v == "clean" for v in votes):
        return "clean"
    return "uncertain"


def check_pass(run_dir: Path, stdout: dict[str, str]) -> tuple[list[str], dict]:
    """Return (failed checks, facts read on the way).

    stdout maps each CLI command the pass ran to what it printed; a `run`
    pass is checked against its report.json, a staged pass against what
    its `ensemble` command printed.
    """
    errors: list[str] = []
    detect = _keys(run_dir / "splits" / "detect.csv")
    train = _keys(run_dir / "splits" / "train.csv")
    detect_set = set(detect)
    board = json.loads((run_dir / "board.json").read_text())
    counts = board["consensus"]

    # Every detect rating gets exactly one vote set, and its consensus is
    # the unanimity of its four votes.
    votes = {}
    for r in _rows(run_dir / "votes.csv"):
        key = (int(r[0]), int(r[1]))
        if key in votes:
            errors.append(f"votes: duplicate key {key}")
        votes[key] = r[6]
        if r[6] != _unanimity(r[2:2 + DETECTORS]):
            errors.append(f"votes: consensus {r[6]} of {key} contradicts votes {r[2:6]}")
    if set(votes) != detect_set or len(detect) != len(detect_set):
        errors.append(f"votes: {len(votes)} vote sets for {len(detect)} detect ratings")
    tally = Counter(votes.values())
    if any(tally[c] != counts[c] for c in ("noisy", "clean", "uncertain")):
        errors.append(f"board.json consensus {counts} disagrees with votes.csv {dict(tally)}")
    if counts["noisy"] + counts["clean"] + counts["uncertain"] != len(detect):
        errors.append(f"noisy + clean + uncertain = {sum(counts.values())} != {len(detect)} detect rows")

    # The ensemble labels exactly the uncertain set.
    uncertain = {k for k, c in votes.items() if c == "uncertain"}
    ensemble = {(int(r[0]), int(r[1])): r[3] for r in _rows(run_dir / "ensemble.csv")}
    if set(ensemble) != uncertain:
        errors.append(f"ensemble.csv labels {len(ensemble)} ratings, {len(uncertain)} are uncertain")
    if set(ensemble.values()) - {"noisy", "clean"}:
        errors.append(f"ensemble.csv has labels {sorted(set(ensemble.values()))}")
    labels = {k: c for k, c in votes.items() if c != "uncertain"}
    labels.update(ensemble)
    if set(labels) != detect_set:
        errors.append(f"{len(detect_set - set(labels))} detect ratings are unlabelled")

    if "run" in stdout:
        report = json.loads((run_dir / "report.json").read_text())
        info = report["ensemble"]
    else:
        report = None
        info = json.loads(stdout["ensemble"])
    ens_tally = Counter(ensemble.values())
    if info["classified_noisy"] + info["classified_clean"] != info["uncertain_total"]:
        errors.append(f"classified noisy + clean != uncertain_total in {info}")
    if (info["classified_noisy"], info["classified_clean"], info["uncertain_total"]) != (
        ens_tally["noisy"], ens_tally["clean"], len(uncertain)
    ):
        errors.append(f"ensemble summary {info} disagrees with ensemble.csv {dict(ens_tally)}")

    # Removal: noisy ratings, then every rating of a signature-flagged user.
    hits = _rows(run_dir / "signature.csv")
    flagged = {int(r[1]) for r in hits}
    if any(r[6] != "remove_user" for r in hits):
        errors.append("signature.csv: the benchmark checks only the remove_user action")
    if not flagged <= {u for u, _ in detect}:
        errors.append("signature.csv flags users absent from the detect split")
    corpus = set(train) | detect_set
    if len(corpus) != len(train) + len(detect):
        errors.append("train and detect splits overlap")
    noisy = {k for k, v in labels.items() if v == "noisy"}
    after_noise = corpus - noisy
    signature_removed = sum(1 for u, _ in after_noise if u in flagged)
    cleaned = len(after_noise) - signature_removed
    removal = {
        "corpus_size": len(corpus),
        "noisy_ratings_removed": len(corpus) - len(after_noise),
        "signature_ratings_removed": signature_removed,
        "cleaned_size": cleaned,
    }
    if removal["noisy_ratings_removed"] != len(noisy):
        errors.append("noisy labels name ratings outside the corpus")
    if report is not None:
        rm = report["removal"]
        if rm != removal:
            errors.append(f"report removal {rm} != recomputed {removal}")
        if rm["corpus_size"] - rm["noisy_ratings_removed"] - rm["signature_ratings_removed"] != rm["cleaned_size"]:
            errors.append(f"report removal does not add up: {rm}")
        if report["signature"]["flagged_users"] != sorted(flagged):
            errors.append("report flagged users differ from signature.csv")

    ingest = json.loads((run_dir / "ingest.json").read_text())
    facts = {
        "ratings": ingest["ratings_after_filter"],
        "detect_rows": len(detect),
        "uncertain": counts["uncertain"],
        "nf3_unpredictable": board["nf3_unpredictable"],
        "labels": labels,
    }
    return errors, facts


def digest(run_dir: Path, skip: tuple[str, ...] = ()) -> str:
    """sha256 over every file (path and bytes) but those named in skip,
    ignoring the report's wall-clock timestamp."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file() and p.name not in skip):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timestamp", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(str(path.relative_to(run_dir)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def artifact_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())


def noise_quality(input_dir: Path, run_dir: Path, labels: dict[tuple[int, int], str]) -> dict:
    """Precision and recall of the final Noisy labels against the injection
    mask on the detect split, by ``pipeline.ground_truth_section``."""
    from noisegate.board import read_votes
    from noisegate.board.verdict import Verdict
    from noisegate.pipeline import ground_truth_section, read_mask

    mask = read_mask(input_dir / "mask.json")
    votesets = read_votes(run_dir / "votes.csv")
    verdicts = {k: Verdict(v) for k, v in labels.items()}
    section = ground_truth_section(mask, votesets, verdicts)
    final = section["final_labels"]
    return {
        "noise_precision": final["precision"],
        "noise_recall": final["recall"],
        "positives_in_detect": section["positives_in_detect"],
        "flagged": final["flagged"],
    }
