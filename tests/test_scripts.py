"""The scripts under scripts/ run against the package as it is."""

from __future__ import annotations

import importlib.util
import json
import re

from noisegate.synth import planted_tables

from .conftest import REPO_ROOT


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer2_standin_runs_on_a_small_stand_in(tmp_path, monkeypatch, capsys):
    """The script, on a small planted dataset in place of the stand-in:
    one line for the labels and one per variant, and a second run against
    the first as baseline finds every CSV the same."""
    script = _load_script("layer2_standin")
    small = planted_tables(users=40, items=120, ratings_per_user=(50, 70), seed=5)
    monkeypatch.setattr(script, "movielens_sized_tables", lambda seed: small)
    script.main(tmp_path / "first")
    first = capsys.readouterr().out.splitlines()
    assert first[0].startswith("labeled ") and len(first) == 1 + len(script.VARIANTS)
    script.main(tmp_path / "second", tmp_path / "first")
    second = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in second[1:]] == list(script.VARIANTS)
    assert all(line.endswith("  same") for line in second[1:]), second


def test_same_outputs_finds_none_on_one_tree_and_a_changed_file(tmp_path, capsys):
    """The script with this src/ tree on both sides, on three of its cases:
    nothing differs, the staged case's five commands exit 0 and write the
    files of `run`, and `report` accepts each case's report; then a changed
    byte in one side's votes.csv, and a report.json that differs only in its
    timestamp, are told apart; and a file that one side lacks is named as
    only in the other."""
    script = _load_script("same_outputs")
    src = REPO_ROOT / "src"
    cases = {name: script.CASES[name] for name in ("run-EL3", "baseline-NF2", "staged")}
    assert script.main(src, src, tmp_path, cases) == 0
    assert capsys.readouterr().out.endswith(" files: 0 differ\n")
    log = (tmp_path / "a" / "staged.log").read_text()
    assert re.findall(r"^\$ (\w+)\nexit (\d+)$", log, re.M) == [
        (stage, "0") for stage in ("ingest", "detect", "ensemble", "signature", "evaluate")
    ]
    # each case ends with `report` on its report.json, which accepts it
    for name in cases:
        log = (tmp_path / "a" / f"{name}.log").read_text()
        assert f"$ report {name}/report.json\nexit 0\n-- stdout\nmode: " in log, log
    # EL3 is the default variant, so the five commands wrote what `run` wrote
    assert (tmp_path / "a" / "staged" / "report.json").exists()
    assert script.differing(tmp_path / "a" / "run-EL3", tmp_path / "a" / "staged")[0] == []
    votes = tmp_path / "b" / "run-EL3" / "votes.csv"
    votes.write_bytes(votes.read_bytes().replace(b"clean", b"noisy", 1))
    report = tmp_path / "b" / "baseline-NF2" / "report.json"
    report.write_text(json.dumps({**json.loads(report.read_text()), "timestamp": "then"}))
    assert script.differing(tmp_path / "a", tmp_path / "b")[0] == ["DIFFERS: run-EL3/votes.csv"]
    (tmp_path / "a" / "run-EL3" / "board.json").unlink()
    (tmp_path / "b" / "baseline-NF2" / "votes.csv").unlink()
    assert script.differing(tmp_path / "a", tmp_path / "b")[0] == [
        "ONLY IN A: baseline-NF2/votes.csv",
        "ONLY IN B: run-EL3/board.json",
        "DIFFERS: run-EL3/votes.csv",
    ]
    assert script.differing(tmp_path / "b", tmp_path / "a")[0] == [
        "ONLY IN B: baseline-NF2/votes.csv",
        "ONLY IN A: run-EL3/board.json",
        "DIFFERS: run-EL3/votes.csv",
    ]
