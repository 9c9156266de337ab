"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checks import check_pass  # noqa: E402
from spans import check_nesting, summarize  # noqa: E402
from workloads import RUN_ID, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "run-ml": dict(users=24, items=200, ratings_per_user=(50, 80)),
    "detect-dense": dict(users=40, items=120, ratings_per_user=(50, 90)),
    "noisy-el2": dict(users=40, items=300, ratings_per_user=(60, 120)),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def work(request):
    path = run.WORK / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name,seed", [("run-ml", 0), ("detect-dense", 1), ("noisy-el2", 2)])
def test_tiny_pass_emits_every_metric(name, seed):
    w = tiny(name)
    measured = run.measure(w, seed, seconds=0, trace=True)
    facts = run.machine_facts()
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        rep = run.report(w, seed, 0, trace, measured, facts)
        result = rep["result"]
        assert result["correct"], rep["lines"]
        assert result["attempted"] == 2 * run.MIN_TRACED_PAIRS and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in BENCHMARK[declared]}
        for m in BENCHMARK[declared]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))
        json.loads(json.dumps(result))
    assert measured["digest"]
    assert len(measured["setup_s"]) == result["attempted"] + 1
    if w.noise_rate:
        assert 0.0 < rep["quality"]["noise_recall"] <= 1.0


def test_corrupted_votes_fail_the_output_check(work):
    w = tiny("detect-dense")
    log = work / "stderr.log"
    run.run_setup(w, 3, work / "input", work, log)
    rec = run.run_one_pass(w, work, False, 0, log)
    assert rec["errors"] == []
    run_dir = work / "input" / "out" / RUN_ID
    stdout = json.loads((work / "pass-0.json").read_text())["stdout"]
    assert check_pass(run_dir, stdout)[0] == []

    votes = run_dir / "votes.csv"
    lines = votes.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith(",clean"))
    lines[k] = lines[k][: -len("clean")] + "noisy"
    votes.write_text("\n".join(lines) + "\n")
    errors, _ = check_pass(run_dir, stdout)
    assert any("contradicts" in e for e in errors)
    assert any("board.json consensus" in e for e in errors)


def test_nesting_check_and_self_time_accounting():
    spans = [
        ["pipeline.pass", 0.0, 10.0, -1],
        ["board.run_board", 1.0, 6.0, 0],
        ["board.nf3", 1.5, 4.0, 1],
        ["recsys.knn_predict", 2.0, 3.0, 2],
    ]
    assert check_nesting(spans) == []
    s = summarize(spans)
    assert s["root_s"] == 10.0
    assert sum(s["layer_self_s"].values()) == pytest.approx(10.0)
    assert s["spans"]["board.run_board"]["self_s"] == pytest.approx(2.5)
    assert s["layer_self_s"]["recsys"] == pytest.approx(1.0)

    spans[3][2] = 4.5  # the child now outlives its parent
    assert any("leaves its parent" in e for e in check_nesting(spans))
    spans.append(["dataset.load", 0.5, 9.9, 0])  # children now exceed the root
    assert any("exceed" in e for e in check_nesting(spans))


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys, work):
    monkeypatch.setattr(run, "ROOT", work)
    assert run.main(["--workload", "run-ml", "--seed", "0", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
