"""Command-line interface: subcommands, exit codes, output shape."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from noisegate import pipeline
from noisegate.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_STAGE, main
from noisegate.ioutil import read_json
from noisegate.pipeline import STAGES, PipelineConfig, reports_equal

from .conftest import MINI_DIR, REPO_ROOT

SRC_DIR = REPO_ROOT / "src"

FAST_FLAGS = [
    "--min-activity", "5",
    "--nf3-k", "10",
    "--nf3-significance-cap", "10",
    "--rf-trees", "15",
    "--rf-max-depth", "6",
    "--gbt-rounds", "15",
    "--gbt-depth", "2",
    "--ressel-bags", "6",
    "--ressel-max-rounds", "3",
    "--eif-trees", "30",
    "--eif-sample-size", "64",
    "--mf-factors", "8",
    "--mf-epochs", "8",
    "--clusters-k", "5",
    "--top-k", "5",
    "--seed", "7",
]


def _run_args(out_dir, run_id):
    return [
        "--ratings-path", str(MINI_DIR / "ratings.csv"),
        "--movies-path", str(MINI_DIR / "movies.csv"),
        "--out-dir", str(out_dir),
        "--run-id", run_id,
        *FAST_FLAGS,
    ]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    code = main(["run", *_run_args(out, "cli-full")])
    assert code == EXIT_OK
    return out / "cli-full"


def test_run_prints_summary_json(cli_run, capsys, tmp_path):
    code = main(["run", *_run_args(tmp_path, "again")])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "report" in payload and "percent_positive" in payload
    assert set(payload["percent_positive"]) == {
        "serendipity-ndcg", "serendipity-precision", "serendipity-recall", "serendipity-f1",
    }


def test_report_subcommand(cli_run, capsys):
    code = main(["report", str(cli_run / "report.json")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "consensus:" in out
    assert "per-detector noisy:" in out
    assert "critical groups:" in out


def test_staged_subcommands_exit_zero(tmp_path, capsys):
    args = _run_args(tmp_path, "staged")
    for command in ("ingest", "detect", "ensemble", "signature", "evaluate"):
        capsys.readouterr()
        assert main([command, *args]) == EXIT_OK, command
    payload = json.loads(capsys.readouterr().out)
    assert "percent_positive" in payload
    assert (tmp_path / "staged" / "report.json").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "ratings_path": str(MINI_DIR / "ratings.csv"),
                "movies_path": str(MINI_DIR / "movies.csv"),
                "out_dir": str(tmp_path / "from-file"),
                "min_activity": 5,
                "seed": 7,
            }
        )
    )
    code = main(
        ["ingest", "--config", str(cfg_file), "--out-dir", str(tmp_path / "override"),
         "--run-id", "cfg"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "override" / "cfg" / "splits" / "train.csv").exists()
    assert not (tmp_path / "from-file").exists()
    counts = json.loads(capsys.readouterr().out)
    assert counts["users"] == 60


def test_bad_config_exits_2(tmp_path, capsys):
    code = main(
        ["run", "--ratings-path", str(MINI_DIR / "ratings.csv"),
         "--out-dir", str(tmp_path), "--min-activity", "0"]
    )
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nf3-k", "0"], "nf3_k must be >= 1"),
        (["--nf3-significance-cap", "0"], "nf3_significance_cap must be >= 1"),
        (["--ensemble-variant", "EL1", "--rf-trees", "0"], "rf_trees"),
        (["--ensemble-variant", "EL5", "--eif-trees", "0"], "eif_trees"),
        (["--ensemble-variant", "EL4_1", "--ressel-bags", "0"], "ressel_bags"),
        (["--ensemble-variant", "EL5", "--eif-sample-size", "0"], "eif_sample_size"),
        (["--gbt-rounds", "0"], "gbt_rounds"),
        (["--gbt-depth", "0"], "gbt_depth"),
        (["--ensemble-variant", "EL1", "--rf-max-depth", "0"], "rf_max_depth"),
        (["--ensemble-variant", "EL5", "--eif-extension-level", "99"], "eif_extension_level"),
        (["--ensemble-variant", "EL5", "--eif-extension-level", "19"], "[0, 18]"),
        (["--ensemble-variant", "EL1", "--rf-feature-subset", "0"], "rf_feature_subset"),
        (["--ensemble-variant", "EL1", "--rf-feature-subset", "-2"], "rf_feature_subset"),
        (["--ensemble-variant", "EL1", "--rf-feature-subset", "20"], "[1, 19]"),
        (["--ensemble-variant", "EL4_1", "--ressel-add-per-round", "0"], "ressel_add_per_round"),
        (["--ensemble-variant", "EL4_1", "--ressel-max-rounds", "-3"], "ressel_max_rounds"),
        (["--gbt-lr", "-5"], "gbt_lr"),
        (["--mf-reg", "-1"], "mf_reg"),
        (["--nf1-cut-low", "4", "--nf1-cut-high", "2"], "nf1_cut_low"),
        (["--nf1-majority", "2"], "nf1_majority"),
        (["--nf1-majority", "1"], "nf1_majority"),
    ],
    ids=[
        "nf3-k", "nf3-significance-cap", "rf-trees", "eif-trees", "ressel-bags",
        "eif-sample-size", "gbt-rounds", "gbt-depth", "rf-max-depth",
        "eif-extension-level-99", "eif-extension-level-19", "rf-feature-subset-0",
        "rf-feature-subset-negative", "rf-feature-subset-20", "ressel-add-per-round-0",
        "ressel-max-rounds-negative", "gbt-lr-negative", "mf-reg-negative", "nf1-cuts-reversed",
        "nf1-majority-2", "nf1-majority-1",
    ],
)
def test_out_of_range_learner_keys_exit_2_before_writing(tmp_path, capsys, flags, message):
    code = main(
        ["run", "--ratings-path", str(MINI_DIR / "ratings.csv"),
         "--movies-path", str(MINI_DIR / "movies.csv"), "--out-dir", str(tmp_path / "out"),
         "--min-activity", "5", "--clusters-k", "5", "--top-k", "5", "--seed", "7", *flags]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


# Every config key declared as a float.
_FLOAT_KEYS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_key_exits_2_before_writing(tmp_path, capsys, key, value):
    """A NaN or infinite float is a config error that names its key, even
    where no range check would catch it (a NaN threshold compares False)."""
    code = main(
        ["run", "--ratings-path", str(MINI_DIR / "ratings.csv"),
         "--movies-path", str(MINI_DIR / "movies.csv"), "--out-dir", str(tmp_path / "out"),
         "--min-activity", "5", "--clusters-k", "5", "--top-k", "5", "--seed", "7",
         "--" + key.replace("_", "-"), value]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {key} must be a finite number, got {value}" in err, err
    assert not (tmp_path / "out").exists()


def test_partial_config_file_completed_by_flags(tmp_path, capsys):
    cfg_file = tmp_path / "partial.json"
    # Alone the file is invalid twice over: no input paths, min_activity 0.
    cfg_file.write_text(json.dumps({"min_activity": 0, "seed": 7}))
    code = main(
        ["ingest", "--config", str(cfg_file),
         "--ratings-path", str(MINI_DIR / "ratings.csv"),
         "--movies-path", str(MINI_DIR / "movies.csv"),
         "--min-activity", "5", "--out-dir", str(tmp_path), "--run-id", "partial"]
    )
    assert code == EXIT_OK
    manifest = read_json(tmp_path / "partial" / "manifest.json")
    assert manifest["config"]["seed"] == 7 and manifest["config"]["min_activity"] == 5


@pytest.mark.parametrize(
    "row, message",
    [
        ("99999999999999999999,1,3.0,5", "id outside int64"),
        ("1,1,3.0,99999999999999999999", "timestamp 99999999999999999999 outside int64"),
    ],
    ids=["user-id", "timestamp"],
)
def test_int64_overflow_in_ratings_exits_3(tmp_path, capsys, row, message):
    ratings = tmp_path / "ratings.csv"
    head = (MINI_DIR / "ratings.csv").read_text().splitlines(keepends=True)[:4]
    ratings.write_text("".join(head) + row + "\n")
    code = main(
        ["ingest", "--ratings-path", str(ratings), "--movies-path", str(MINI_DIR / "movies.csv"),
         "--out-dir", str(tmp_path / "out"), "--min-activity", "1"]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and f"{ratings}:5: {message}" in err
    # nothing is created for a run whose ratings do not load
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,A (2001),Drama", "1,B (2001),Comedy"], "3: repeated movieId 1 (first on line 2)"),
        (["2,A (2001),Drama", "-4,B (2001),Comedy"], "3: negative movieId -4"),
        (["99999999999999999999,A (2001),Drama"], "2: movieId 99999999999999999999 outside int64"),
    ],
    ids=["repeated", "negative", "int64"],
)
def test_bad_movie_id_exits_3(tmp_path, capsys, rows, message):
    movies = tmp_path / "movies.csv"
    movies.write_text("movieId,title,genres\n" + "\n".join(rows) + "\n")
    code = main(
        ["ingest", "--ratings-path", str(MINI_DIR / "ratings.csv"), "--movies-path", str(movies),
         "--out-dir", str(tmp_path / "out"), "--min-activity", "1"]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and f"{movies}:{message}" in err
    assert not (tmp_path / "out").exists()


def test_too_small_dataset_exits_3_before_writing(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    head = (MINI_DIR / "ratings.csv").read_text().splitlines(keepends=True)[0]
    ratings.write_text(head + "1,1,3.0,5\n2,1,4.0,5\n3,2,2.0,5\n")
    code = main(
        ["ingest", "--ratings-path", str(ratings), "--movies-path", str(MINI_DIR / "movies.csv"),
         "--out-dir", str(tmp_path / "out"), "--min-activity", "1"]
    )
    assert code == EXIT_DATA
    assert "dataset too small" in capsys.readouterr().err
    # no run directory is left without a manifest
    assert not list((tmp_path / "out").glob("run-*"))


def test_run_without_movies_exits_2(tmp_path, capsys):
    code = main(
        ["run", "--ratings-path", str(MINI_DIR / "ratings.csv"),
         "--out-dir", str(tmp_path / "out"), "--min-activity", "5"]
    )
    assert code == EXIT_CONFIG
    assert "movies_path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resume_with_other_config_exits_2(tmp_path, capsys):
    args = _run_args(tmp_path, "mixed")
    assert main(["ingest", *args, "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["detect", *args, "--seed", "2", "--nf3-th", "0.3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    built = read_json(tmp_path / "mixed" / "manifest.json")["config_hash"]
    hashes = set(re.findall(r"\b[0-9a-f]{16}\b", err))
    assert built in hashes and len(hashes) == 2
    assert not (tmp_path / "mixed" / "votes.csv").exists()
    # ingest does not rebuild the splits of a run directory under another config
    assert main(["ingest", *args, "--seed", "2"]) == EXIT_CONFIG


@pytest.mark.parametrize("name", ["ratings.csv", "movies.csv"])
def test_resume_after_input_edit_exits_2(tmp_path, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(MINI_DIR, data)
    args = [
        "--ratings-path", str(data / "ratings.csv"),
        "--movies-path", str(data / "movies.csv"),
        "--out-dir", str(tmp_path / "out"),
        "--run-id", "edited",
        *FAST_FLAGS,
    ]
    assert main(["ingest", *args]) == EXIT_OK
    edited = data / name
    lines = edited.read_text().splitlines(keepends=True)
    edited.write_text("".join(lines[: len(lines) // 2]))
    capsys.readouterr()
    assert main(["detect", *args]) == EXIT_CONFIG
    assert str(edited) in capsys.readouterr().err
    assert not (tmp_path / "out" / "edited" / "votes.csv").exists()


def test_missing_data_exits_3(tmp_path, capsys):
    code = main(
        ["run", "--ratings-path", str(tmp_path / "absent.csv"),
         "--movies-path", str(MINI_DIR / "movies.csv"), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_stage_failure_exits_4(tmp_path, capsys, monkeypatch):
    def _boom(*args, **kwargs):
        raise RuntimeError("synthetic stage crash")

    monkeypatch.setattr("noisegate.pipeline.stage_board", _boom)
    code = main(["run", *_run_args(tmp_path, "crash")])
    assert code == EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage error" in err and "board" in err


def test_missing_artifacts_exit_3(tmp_path, capsys):
    """Each resuming stage, run after every stage but the one before it,
    exits 3 and names that one."""
    args = _run_args(tmp_path, "cold")
    for producer, stage in zip(STAGES, list(STAGES)[1:]):
        capsys.readouterr()
        assert main([stage, *args]) == EXIT_DATA, stage
        assert f"run the {producer} stage first" in capsys.readouterr().err, stage
        assert main([producer, *args]) == EXIT_OK, producer


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """A run directory after ingest, detect, ensemble and signature."""
    out = tmp_path_factory.mktemp("staged")
    for command in ("ingest", "detect", "ensemble", "signature"):
        assert main([command, *_run_args(out, "malformed")]) == EXIT_OK, command
    return out / "malformed"


def _bogus_cell(column: int, text: str = "bogus"):
    def edit(lines: list[str]) -> None:
        cells = lines[1].rstrip("\r\n").split(",")
        cells[column] = text
        lines[1] = ",".join(cells) + "\r\n"
    return edit


def _swap_first_rows(lines: list[str]) -> None:
    lines[1], lines[2] = lines[2], lines[1]


def _bad_header(lines: list[str]) -> None:
    lines[0] = "bogus," + lines[0]


def _short_row(lines: list[str]) -> None:
    lines.append("1\r\n")


def _empty(lines: list[str]) -> None:
    lines.clear()


def _drop_row(lines: list[str]) -> None:
    del lines[1]


def _extra_noisy_row(lines: list[str]) -> None:
    lines.append("999999,999999,0.9,noisy,EL3\r\n")


def _earlier_hit_row(lines: list[str]) -> None:
    lines.append("optout,0,2022-05-30,1,1,1.0,remove_user\r\n")


def _below_blank(edit):
    """edit, then a blank line above the row it edited, which moves to line 3."""
    def below(lines: list[str]) -> None:
        edit(lines)
        lines.insert(1, "\r\n")
    return below


LAST = -1  # the line of a row appended at the end of the file


@pytest.mark.parametrize(
    "artifact, edit, command, message, line",
    [
        ("votes.csv", _bogus_cell(3), "ensemble", "are not four Verdicts", 2),
        ("features.csv", _swap_first_rows, "ensemble", "does not list the ratings", None),
        ("ensemble.csv", _bogus_cell(3), "signature", "'bogus' is not a valid Verdict", 2),
        ("features.csv", _short_row, "ensemble", "requires 21 columns but 1 were found", LAST),
        ("signature.csv", _bad_header, "evaluate", "expected header", None),
        ("board.json", _bad_header, "evaluate", "Expecting value", None),
        ("ensemble.csv", _empty, "signature", "expected header", None),
        ("signature.csv", _empty, "evaluate", "expected header", None),
        (
            "ensemble.csv", _bogus_cell(2), "signature",
            "could not convert string 'bogus' to float64", 2,
        ),
        ("ensemble.csv", _bogus_cell(4, "EL1"), "signature", "variant 'EL1', expected 'EL3'", 2),
        ("ensemble.csv", _drop_row, "signature", "does not list the Uncertain ratings", None),
        ("ensemble.csv", _extra_noisy_row, "evaluate", "does not list the Uncertain ratings", None),
        ("votes.csv", _swap_first_rows, "signature", "does not list the ratings", None),
        (
            "votes.csv", _bogus_cell(0, "99999999999999999999"), "ensemble",
            "could not convert string '99999999999999999999' to int64", 2,
        ),
        ("signature.csv", _bogus_cell(2), "evaluate", "Invalid isoformat string: 'bogus'", 2),
        ("signature.csv", _bogus_cell(0), "evaluate", "signatureId 'bogus' is not optout", 2),
        ("signature.csv", _earlier_hit_row, "evaluate", "userId 0 does not ascend", LAST),
        ("signature.csv", _bogus_cell(6), "evaluate", "'bogus' is not a valid SignatureAction", 2),
        (
            "signature.csv", _bogus_cell(6, "remove_last_day"), "evaluate",
            "action 'remove_last_day', expected 'remove_user'", 2,
        ),
        ("signature.csv", _bogus_cell(2, "20220629"), "evaluate", "'20220629' is not written", 2),
        (
            "signature.csv", _bogus_cell(2, "2022-W22-1"), "evaluate",
            "'2022-W22-1' is not written", 2,
        ),
        (
            "ensemble.csv", _below_blank(_bogus_cell(3)), "signature",
            "'bogus' is not a valid Verdict", 3,
        ),
        (
            "ensemble.csv", _below_blank(_bogus_cell(2)), "signature",
            "could not convert string 'bogus' to float64", 3,
        ),
    ],
    ids=[
        "bogus-vote", "reordered-features", "bogus-label", "short-features-row",
        "bad-hits-header", "bad-board-json", "empty-classification", "empty-hits",
        "bogus-score", "other-variant", "missing-row", "extra-row", "reordered-votes",
        "wide-vote-id", "bogus-hit-day", "other-signature", "descending-hit-user",
        "bogus-hit-action", "other-hit-action", "basic-hit-day", "week-hit-day",
        "bogus-label-below-blank", "bogus-score-below-blank",
    ],
)
def test_malformed_artifact_exits_3(
    staged_run, tmp_path, capsys, artifact, edit, command, message, line
):
    """evaluate and the stages before it exit 3 on a malformed artifact,
    and name the file, and the line (the header is line 1, blank lines
    count) where one row is at fault."""
    run_dir = tmp_path / "malformed"
    shutil.copytree(staged_run, run_dir)
    path = run_dir / artifact
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main([command, *_run_args(tmp_path, "malformed")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and artifact in err and message in err
    if line is not None:
        assert f"{path}:{len(lines) if line == LAST else line}: " in err, err


@pytest.mark.parametrize(
    "artifact, edit, message",
    [
        ("manifest.json", "{}", "manifest entry 'config' is missing or not an object"),
        ("manifest.json", "[]", "expected a JSON object"),
        (
            "manifest.json", {"config_hash": 7},
            "manifest entry 'config_hash' is missing or not a string",
        ),
        (
            "manifest.json", {"inputs": {}},
            "manifest entry 'inputs.ratings_path' is missing or not a string",
        ),
        ("ingest.json", "[]", "expected a JSON object"),
        ("ingest.json", '{"x": 1}', "ingest entry 'ratings_loaded' is missing or not an integer"),
        ("ingest.json", {"users": True}, "ingest entry 'users' is missing or not an integer"),
        ("board.json", "[]", "expected a JSON object"),
        ("board.json", "{}", "board entry 'consensus' is missing or not an object"),
        ("board.json", {"venn": [1]}, "board entry 'venn' is missing or not an object"),
        (
            "board.json", {"consensus": {"noisy": "many"}},
            "board entry 'consensus.noisy' is missing or not an integer",
        ),
    ],
    ids=[
        "manifest-empty", "manifest-list", "manifest-hash-int", "manifest-no-digest",
        "ingest-list", "ingest-other-key", "ingest-users-bool", "board-list", "board-empty",
        "board-venn-list", "board-consensus-string",
    ],
)
def test_malformed_json_artifact_exits_3_without_a_report(
    staged_run, tmp_path, capsys, artifact, edit, message
):
    """evaluate exits 3 on a JSON artifact that is not an object holding
    the entries its writer writes (edit is the new text, or entries laid
    over the written ones), names the file and the entry, and writes no report."""
    run_dir = tmp_path / "malformed"
    shutil.copytree(staged_run, run_dir)
    path = run_dir / artifact
    path.write_text(edit if isinstance(edit, str) else json.dumps({**read_json(path), **edit}))
    capsys.readouterr()
    assert main(["evaluate", *_run_args(tmp_path, "malformed")]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"
    assert not (run_dir / "report.json").exists()


@pytest.fixture(scope="module")
def masked_run(tmp_path_factory):
    """A data/mini run on ratings with 10% uniform noise, given its mask:
    its report has a ground_truth section."""
    out = tmp_path_factory.mktemp("masked")
    ratings, mask = out / "noisy.csv", out / "mask.json"
    assert main(["inject-noise", "--ratings", str(MINI_DIR / "ratings.csv"), "--rate", "0.1",
                 "--kind", "uniform", "--seed", "3", "--out-ratings", str(ratings),
                 "--out-mask", str(mask)]) == EXIT_OK
    args = _run_args(out, "masked")
    args[args.index("--ratings-path") + 1] = str(ratings)
    assert main(["run", *args, "--mask-path", str(mask)]) == EXIT_OK
    return out / "masked"


def test_report_prints_a_report_with_ground_truth(masked_run, capsys):
    capsys.readouterr()
    assert main(["report", str(masked_run / "report.json")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # the lines of a report without ground truth, then the ground-truth line
    assert lines[0] == "mode: run" and len(lines) == len(MINI_REPORT_TEXT.splitlines()) + 1
    assert re.fullmatch(
        r"ground truth \(uniform, rate 0\.1\): consensus precision \d\.\d{3} recall \d\.\d{3}",
        lines[-1],
    ), lines[-1]


def _declared(name: str, data: dict) -> list[str]:
    """The dotted names an entry name of an entry table stands for in data,
    which holds every optional section: a `*` key, one per key there, sorted."""
    head, star, tail = name.replace("?", "").partition(".*.")
    if not star:
        return [head]
    section = data
    for key in head.split("."):
        section = section[key]
    return [f"{head}.{key}.{tail}" for key in sorted(section)]


def _mutations(text: str, entries) -> list[tuple[str, str]]:
    """(case, new text) of each mutation of a JSON file that holds entries:
    the file empty, null, a list, an empty object, cut in half, and each
    declared entry removed (but an optional section) or retyped in turn."""
    cases = [("empty", ""), ("null", "null"), ("list", "[]"), ("object", "{}"),
             ("half", text[: len(text) // 2])]
    for name in entries:
        for dotted in _declared(name, json.loads(text)):
            for how in ("retyped",) if name.endswith("?") else ("removed", "retyped"):
                data = json.loads(text)
                *parents, last = dotted.split(".")
                section = data
                for key in parents:
                    section = section[key]
                if how == "removed":
                    del section[last]
                else:
                    section[last] = [] if isinstance(section[last], dict) else {}
                cases.append((f"{dotted} {how}", json.dumps(data)))
    return cases


def _files(run_dir) -> dict:
    return {p: p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "artifact, entries",
    [
        ("manifest.json", pipeline._MANIFEST_ENTRIES),
        ("ingest.json", pipeline._INGEST_ENTRIES),
        ("board.json", pipeline._BOARD_ENTRIES),
        ("report.json", pipeline._REPORT_ENTRIES),
    ],
    ids=["manifest", "ingest", "board", "report"],
)
def test_mutated_json_file_exits_3_and_changes_nothing(
    staged_run, masked_run, tmp_path, capsys, artifact, entries
):
    """evaluate, or report for report.json, exits 3 on every mutation of
    the file, names it, and leaves every file of the run directory as it was."""
    run_dir = tmp_path / "malformed"
    shutil.copytree(masked_run if artifact == "report.json" else staged_run, run_dir)
    path = run_dir / artifact
    command = (["report", str(path)] if artifact == "report.json"
               else ["evaluate", *_run_args(tmp_path, "malformed")])
    for case, text in _mutations(path.read_text(), entries):
        path.write_text(text)
        before = _files(run_dir)
        capsys.readouterr()
        assert main(command) == EXIT_DATA, case
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and "Traceback" not in err, (case, err)
        assert _files(run_dir) == before, case


@pytest.mark.parametrize("case", ["ratings", "movies", "mask", "config", "board", "report"])
def test_directory_in_place_of_a_file_exits_without_traceback(staged_run, tmp_path, capsys, case):
    """A directory where a file is read is a data error that names it, or
    a config error for the config file; nothing is written."""
    out, ratings, movies = tmp_path / "out", MINI_DIR / "ratings.csv", MINI_DIR / "movies.csv"

    def run(ratings_path, movies_path):
        return ["run", "--ratings-path", str(ratings_path), "--movies-path", str(movies_path),
                "--out-dir", str(out), *FAST_FLAGS]

    run_dir = tmp_path / "run"
    shutil.copytree(staged_run, run_dir)
    board = run_dir / "board.json"
    board.unlink()
    board.mkdir()
    argv = {
        "ratings": run(MINI_DIR, movies),
        "movies": run(ratings, MINI_DIR),
        "mask": [*run(ratings, movies), "--mask-path", str(MINI_DIR)],
        "config": ["run", "--config", str(MINI_DIR), "--out-dir", str(out)],
        "board": ["evaluate", *_run_args(tmp_path, "run")],
        "report": ["report", str(MINI_DIR)],
    }[case]
    code, error = (
        (EXIT_CONFIG, "config error: config file") if case == "config" else (EXIT_DATA, "data error:")
    )
    capsys.readouterr()
    assert main(argv) == code
    named = board if case == "board" else MINI_DIR
    assert capsys.readouterr().err == f"{error} {named}: Is a directory\n"
    assert not out.exists() and not (run_dir / "report.json").exists()


@pytest.mark.parametrize("command", ["report", "run"])
def test_closed_stdout_exits_1_without_traceback(cli_run, tmp_path, command):
    """A reader that closes stdout at once: the command exits 1, and
    prints nothing on stderr."""
    args = (["report", str(cli_run / "report.json")] if command == "report"
            else ["run", *_run_args(tmp_path, "closed")])
    child = subprocess.Popen([sys.executable, "-m", "noisegate.cli", *args], env=_cli_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait() == 1
    assert err == b""
    # run wrote its run directory before it printed the summary
    assert command == "report" or (tmp_path / "closed" / "report.json").exists()


def test_inject_noise_subcommand(tmp_path, capsys):
    out_ratings = tmp_path / "noisy.csv"
    out_mask = tmp_path / "mask.json"
    code = main(
        ["inject-noise",
         "--ratings", str(MINI_DIR / "ratings.csv"),
         "--rate", "0.1",
         "--kind", "uniform",
         "--seed", "3",
         "--out-ratings", str(out_ratings),
         "--out-mask", str(out_mask)]
    )
    assert code == EXIT_OK
    assert out_ratings.exists() and out_mask.exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["perturbed"] == round(0.1 * payload["total"])
    assert payload["kind"] == "uniform"


def test_inject_noise_missing_input_exits_3(tmp_path, capsys):
    code = main(
        ["inject-noise", "--ratings", str(tmp_path / "none.csv"), "--rate", "0.1",
         "--kind", "flip", "--out-ratings", str(tmp_path / "o.csv"),
         "--out-mask", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA


def test_report_on_missing_file_exits_3(tmp_path):
    assert main(["report", str(tmp_path / "nothing.json")]) == EXIT_DATA


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "uniform"}', "mask entry 'rate' is missing or not a number"),
        ("not json", "Expecting value"),
        ("[]", "expected a JSON object"),
        ('{"kind": "flip", "rate": 0.1, "seed": 0, "keys": [["1", 2]]}',
         "mask entry 'keys' must list [userId, itemId] pairs of integers"),
        ('{"kind": "flip", "rate": 0.1, "seed": true, "keys": []}',
         "mask entry 'seed' is missing or not an integer"),
        ('{"kind": "flip", "rate": 7.0, "seed": 0, "keys": []}',
         "mask entry 'rate' must be in [0, 0.5], got 7.0"),
        ('{"kind": "flip", "rate": -0.1, "seed": 0, "keys": []}',
         "mask entry 'rate' must be in [0, 0.5], got -0.1"),
        ('{"kind": "flip", "rate": 0.1, "seed": 0, "keys": [[1, 2], [3, 4], [1, 2]]}',
         "mask entry 'keys' repeats a [userId, itemId] pair"),
        ('{"kind": "flip", "rate": 0.1, "seed": 0, "keys": [[1, 2], [-1, 2]]}',
         "mask entry 'keys' holds a negative id"),
        ('{"kind": "flip", "rate": 0.1, "seed": 0, "keys": [[1, -2]]}',
         "mask entry 'keys' holds a negative id"),
    ],
    ids=[
        "kind-only", "not-json", "list", "string-key", "bool-seed", "rate-above", "rate-below",
        "repeated-key", "negative-user", "negative-item",
    ],
)
def test_malformed_mask_exits_3_at_ingest(tmp_path, capsys, text, message):
    mask = tmp_path / "mask.json"
    mask.write_text(text)
    code = main(["run", *_run_args(tmp_path / "out", "m"), "--mask-path", str(mask)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {mask}: " in err and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case, code, message",
    [
        pytest.param(case, code, message, id=case)
        for case, code, message in [
            ("rate-above", EXIT_CONFIG, "rate must be in [0, 0.5], got 0.7"),
            ("rate-below", EXIT_CONFIG, "rate must be in [0, 0.5], got -0.1"),
            ("scale-reversed", EXIT_CONFIG, "scale requires r_min < r_max, got (5.0, 1.0)"),
            ("inject-seed-negative", EXIT_CONFIG, "config error: seed must be >= 0, got -1"),
            ("ingest-seed-negative", EXIT_CONFIG, "config error: seed must be >= 0, got -3"),
            ("report-not-json", EXIT_DATA, "report.json: Expecting value"),
            ("report-list", EXIT_DATA, "report.json: expected a JSON object"),
            ("report-empty", EXIT_DATA,
             "report.json: report entry 'counts' is missing or not an object"),
            ("report-counts-list", EXIT_DATA,
             "report.json: report entry 'counts' is missing or not an object"),
        ]
    ],
)
def test_bad_flag_or_file_exits_without_traceback(tmp_path, case, code, message):
    out = [str(tmp_path / "o.csv"), "--out-mask", str(tmp_path / "m.json")]
    inject = ["inject-noise", "--ratings", str(MINI_DIR / "ratings.csv"), "--kind", "flip",
              "--out-ratings", *out]
    report = tmp_path / "report.json"
    report.write_text({
        "report-not-json": "not json", "report-empty": "{}", "report-counts-list": '{"counts": []}',
    }.get(case, "[1, 2]"))
    args = {
        "rate-above": [*inject, "--rate", "0.7"],
        "rate-below": [*inject, "--rate", "-0.1"],
        "scale-reversed": [*inject, "--rate", "0.1", "--scale-min", "5", "--scale-max", "1"],
        "inject-seed-negative": [*inject, "--rate", "0.1", "--seed", "-1"],
        "ingest-seed-negative": ["ingest", *_run_args(tmp_path / "out", "s"), "--seed", "-3"],
    }.get(case, ["report", str(report)])
    done = _cli_subprocess(args, check=False)
    assert done.returncode == code
    assert "Traceback" not in done.stderr and message in done.stderr, done.stderr
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "m.json").exists()
    assert not (tmp_path / "out").exists()


def _report_with(cli_run, tmp_path, name: str, value) -> str:
    """The path of a copy of cli_run's report with the dotted entry name set to value."""
    report = read_json(cli_run / "report.json")
    *parents, last = name.split(".")
    section = report
    for key in parents:
        section = section[key]
    section[last] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return str(path)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("board", None, "'board.consensus' is missing or not an object"),
        ("board.per_detector_noisy", [], "'board.per_detector_noisy' is missing or not an object"),
        ("ensemble", "EL3", "'ensemble' is missing or not an object"),
        ("evaluation.excluded_users", 3, "'evaluation.excluded_users' is missing or not a list"),
        ("evaluation.pairs.serendipity-f1.percent_positive", None,
         "'evaluation.pairs.serendipity-f1.percent_positive' is missing or not a number"),
        ("evaluation.critical_group_pct_after", "60",
         "'evaluation.critical_group_pct_after' is missing or not a number"),
        ("ground_truth", {"kind": "flip", "consensus": {"precision": 1.0}},
         "'ground_truth.consensus.recall' is missing or not a number"),
    ],
    ids=["board", "per-detector", "ensemble", "excluded", "percent", "critical", "ground-truth"],
)
def test_report_names_a_missing_or_mistyped_entry(cli_run, tmp_path, capsys, name, value, message):
    path = _report_with(cli_run, tmp_path, name, value)
    assert main(["report", path]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}: report entry {message}\n"


# `report` on the cli_run fixture's report.json.
MINI_REPORT_TEXT = """\
mode: run
ratings: 2321 (train 1671 / detect 331 / eval 319)
consensus: noisy 3, clean 86, uncertain 242
per-detector noisy: NF1 56, NF2 152, NF3 194, NF4 3
ensemble EL3: 17 noisy / 225 clean of 242 uncertain
signature hits: 1 user(s) [28]
removal: 20 noisy + 36 signature ratings; corpus 2002 -> 1946
evaluated users: 59 (excluded: 1)
  serendipity-f1: percent positive 10.17 quadrants {'I': 6, 'II': 1, 'III': 1, 'IV': 0, 'Origin': 51}
  serendipity-ndcg: percent positive 11.86 quadrants {'I': 7, 'II': 1, 'III': 1, 'IV': 2, 'Origin': 48}
  serendipity-precision: percent positive 10.17 quadrants {'I': 6, 'II': 1, 'III': 1, 'IV': 0, 'Origin': 51}
  serendipity-recall: percent positive 10.17 quadrants {'I': 6, 'II': 1, 'III': 1, 'IV': 0, 'Origin': 51}
critical groups: before 60.00% -> after 40.00%
"""


def test_report_prints_a_mini_report_as_before(cli_run, tmp_path, capsys):
    """The text of a data/mini report, pinned; a ground-truth section adds one line."""
    assert main(["report", str(cli_run / "report.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == MINI_REPORT_TEXT
    truth = {"kind": "flip", "rate": 0.1, "consensus": {"precision": 0.5, "recall": 0.25}}
    assert main(["report", _report_with(cli_run, tmp_path, "ground_truth", truth)]) == EXIT_OK
    assert capsys.readouterr().out == out + (
        "ground truth (flip, rate 0.1): consensus precision 0.500 recall 0.250\n"
    )


def _cli_env() -> dict:
    """The environment, with this src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def _cli_subprocess(args, check=True):
    """The CLI in a fresh process, whose logging is set up by main alone."""
    return subprocess.run(
        [sys.executable, "-m", "noisegate.cli", *args],
        env=_cli_env(), capture_output=True, text=True, check=check,
    )


def test_verbose_logs_one_line_per_stage(tmp_path):
    quiet = _cli_subprocess(["run", *_run_args(tmp_path / "quiet", "v")])
    loud = _cli_subprocess(["run", "--verbose", *_run_args(tmp_path / "loud", "v")])
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    stages = [re.fullmatch(r"INFO noisegate\.pipeline: stage (\w+): \d+\.\d{3} s", l) for l in lines]
    assert all(stages), lines
    assert [m.group(1) for m in stages] == [
        "ingest", "split", "board", "ensemble", "signature", "evaluate"
    ]
    # the flag changes nothing but stderr
    out_quiet, out_loud = json.loads(quiet.stdout), json.loads(loud.stdout)
    assert out_quiet.pop("report") != out_loud.pop("report")
    assert out_quiet == out_loud
    assert reports_equal(tmp_path / "quiet" / "v" / "report.json", tmp_path / "loud" / "v" / "report.json")
