"""Command-line interface: subcommands, exit codes, output shape."""

from __future__ import annotations

import json
import re
import shutil

import pytest

from noisegate.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_STAGE, main
from noisegate.ioutil import read_json

from .conftest import MINI_DIR

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
    ],
    ids=[
        "nf3-k", "nf3-significance-cap", "rf-trees", "eif-trees", "ressel-bags",
        "eif-sample-size", "gbt-rounds", "gbt-depth", "rf-max-depth",
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
    code = main(["ensemble", *_run_args(tmp_path, "cold")])
    assert code == EXIT_DATA
    assert "run the detect stage first" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "artifact, edit, command, message",
    [
        ("votes.csv", _bogus_cell(3), "ensemble", "are not four Verdicts"),
        ("features.csv", _swap_first_rows, "ensemble", "does not list the ratings"),
        ("ensemble.csv", _bogus_cell(3), "signature", "'bogus' is not a valid Verdict"),
        ("features.csv", _short_row, "ensemble", "expected 21 fields in every row"),
        ("signature.csv", _bad_header, "evaluate", "expected header"),
        ("board.json", _bad_header, "evaluate", "Expecting value"),
        ("ensemble.csv", _empty, "signature", "expected header"),
        ("signature.csv", _empty, "evaluate", "expected header"),
        ("ensemble.csv", _bogus_cell(2), "signature", "could not convert string to float"),
        ("ensemble.csv", _bogus_cell(4, "EL1"), "signature", "variant 'EL1', expected 'EL3'"),
        ("ensemble.csv", _drop_row, "signature", "does not list the Uncertain ratings"),
        ("ensemble.csv", _extra_noisy_row, "evaluate", "does not list the Uncertain ratings"),
        ("votes.csv", _swap_first_rows, "signature", "does not list the ratings"),
        ("votes.csv", _bogus_cell(0, "99999999999999999999"), "ensemble", "too large"),
    ],
    ids=[
        "bogus-vote", "reordered-features", "bogus-label", "short-features-row",
        "bad-hits-header", "bad-board-json", "empty-classification", "empty-hits",
        "bogus-score", "other-variant", "missing-row", "extra-row", "reordered-votes",
        "wide-vote-id",
    ],
)
def test_malformed_artifact_exits_3(
    staged_run, tmp_path, capsys, artifact, edit, command, message
):
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
