"""The scripts under scripts/ run against the package as it is."""

from __future__ import annotations

import importlib.util

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
