"""The generated inputs, pinned by digest.

The benchmark's workloads are generated by `noisegate.synth` (plus
`inject_noise` for the noisy workload) through perfbench's `write_inputs`,
and its results are comparable across versions only while those inputs stay
the same bytes.  So are the `inject-noise` command's outputs on the bundled
mini dataset.  A rewrite of the generator or of the noise injection must
keep every digest below.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from perfbench.workloads import WORKLOADS, write_inputs

from noisegate.cli import EXIT_OK, main

from .conftest import MINI_DIR

INPUT_DIGESTS = {
    "run-ml": {
        "ratings.csv": "4cf18555dae637f97b3a63994991fdb09e0f79fcacc27d754782780acd21f4ef",
        "movies.csv": "3c759d3b7f3968014c4191ce83c0ad10a045c391a3fd4b29ffe25168b02622c3",
    },
    "detect-dense": {
        "ratings.csv": "b4fbe498eb49ec39ae0803ecf5b2f4f201707693fad35e6dec746b36f3acd152",
        "movies.csv": "47d77e84509ceab6205bae70bba35094a3dbaa72df6c1a4fdf5ee73f53ba33fc",
    },
    "noisy-el2": {
        "ratings.csv": "2fd99acca2b297e563f6207d62acf58ccff66249c751a30505d2fa05117c0ede",
        "movies.csv": "ebefc72caa4e034e142431786851a75fcb1ee1f51b8fdfad3d96b9a57c338fe9",
        "mask.json": "9c075fc58847b85f94bd6fdf5583c1a9b1f5e3bb439f81057b266e5978be44fe",
    },
}

# kind -> (ratings.csv, mask.json, ratings perturbed) at rate 0.1, seed 3
INJECT_DIGESTS = {
    "uniform": (
        "f3cbd2f6bc37441d94e3d01ed5c740262607bd5d92ba748d29c8bd7abc76a4d2",
        "0354f5aa038a73997681be3a2e9deb015562aa4f33eb6528aa641f626fe4bd75",
        232,
    ),
    "flip": (
        "07ef30aa903cff9df051e756419dddb40c4735f2dcfb547dda12d5c6c02d353f",
        "8b7c53abd7d544b4fe7b7d808443dc1b3cb8b8f66ea281cfeff1964a94b374d7",
        232,
    ),
    "optout": (
        "144325d199d5d33c22ca4cb07223b4665b360d37602cfd796e7af55c90e2ee8c",
        "3f42e0a23f116ec21e3b43f3a3b360c2c33cf51e06afbf51b5ce48d84b1729f5",
        6,
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(INPUT_DIGESTS))
def test_workload_inputs_keep_their_bytes(tmp_path, name):
    write_inputs(WORKLOADS[name], 7, tmp_path)
    assert {f: _sha256(tmp_path / f) for f in INPUT_DIGESTS[name]} == INPUT_DIGESTS[name]
    assert (tmp_path / "mask.json").exists() == ("mask.json" in INPUT_DIGESTS[name])


@pytest.mark.parametrize("kind", sorted(INJECT_DIGESTS))
def test_inject_noise_outputs_keep_their_bytes(tmp_path, capsys, kind):
    code = main(
        ["inject-noise", "--ratings", str(MINI_DIR / "ratings.csv"), "--rate", "0.1",
         "--kind", kind, "--seed", "3", "--out-ratings", str(tmp_path / "ratings.csv"),
         "--out-mask", str(tmp_path / "mask.json")]
    )
    assert code == EXIT_OK
    ratings, mask, perturbed = INJECT_DIGESTS[kind]
    assert (_sha256(tmp_path / "ratings.csv"), _sha256(tmp_path / "mask.json")) == (ratings, mask)
    assert json.loads(capsys.readouterr().out)["perturbed"] == perturbed
