"""Artifact bytes pinned by sha256: solver, evolution, identity-check and
tree-sampler outputs must not move when their implementation is
refactored."""

import hashlib
import json

import pytest

from padicsde.cli import main

BASE = {"prime": 3, "precision": 6, "depth": 4, "seed": 7}

SOLUTIONS = {
    "zero": "4d18696b2f716b3aae42598f8f17b69f777c0ff75106ef52b61aaa537556d9b0",
    "pure_drift": "0907de0df7c10d1e5b9725bcdf3e5a644e322346fe5734e3169b5e449a880a72",
    "pure_noise": "3f0433f927cc28fadfd79fcbec11aaba5af40344b0893f1c2f1a10aac239bf6a",
    "linear_drift": "99c31471c5f1c6dd39ac7dc8ea99f7fb5dfa70a15f6e0e9c70dd9a6dfde6beb4",
    "linear": "a81b05219dc11340bb38e089c7dee3e13b90f92ee966ac5c74052cceeff0a4ff",
    "steep": "34e96bdfeb32a9aa7dc0943e7a038c45c89868bf08ffd62802f695c0e47fda58",
    "polynomial": "9079842bd5b466e7bc22b568bb08a8f147b3dc705f4725ab00a41f7ef4f704f8",
    "locally_constant": "9bda9fcec35b416eb819f83f68bb386e5738c4f915dfe4421354496efefc4d23",
}

OPERATOR = "614e40203d0c7ba8e7a304976f0b98bdd08648abba2a5a501670ad9b0da0889a"

# perturbation identity residual, gap and bounds of the same evolve run
EVOLVE_REPORT = \
    "46426ed9cdf83214620ec1719a93889b7ed3133b73afd80f1a5f493a9b3b0d66"

# by-parts, square-decomposition and covariation residuals plus the
# character-product reports
VERIFY_REPORT = \
    "c62e371b50f46e6a8c299c37f328f84b0bc421b3521e50303cf50ecf3d99e372"

TREE_PATHS = {
    "path_0000.csv": "5f2858475a199904d7fc9e181be309e29ff60a84aeb489794288e8f26015b09b",
    "path_0001.csv": "21b82ea1848830fb2e8b75f5aaf5c190f1a40546083fc311d47ef7111e3b165c",
    "path_0002.csv": "cf95ca6c93a36a710ac66a972320ee6e008a5f1a230dd60487b68cf248c27989",
}


def run_digests(tmp_path, command, cfg):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()}


@pytest.mark.parametrize("problem", sorted(SOLUTIONS))
def test_solution_digest(tmp_path, problem):
    got = run_digests(tmp_path, "solve", {**BASE,
                                          "solve": {"problem": problem}})
    assert got["solution_0000.csv"] == SOLUTIONS[problem]


def test_operator_digest(tmp_path):
    got = run_digests(tmp_path, "evolve", {**BASE, "depth": 3,
                                           "evolve": {"dim": 2,
                                                      "triples": 12}})
    assert got["operator.csv"] == OPERATOR


def test_evolve_report_digest(tmp_path):
    got = run_digests(tmp_path, "evolve", {**BASE, "depth": 3,
                                           "evolve": {"dim": 2,
                                                      "triples": 12}})
    assert got["evolve.json"] == EVOLVE_REPORT


def test_verify_report_digest(tmp_path):
    got = run_digests(tmp_path, "verify", {**BASE, "depth": 3, "verify": {
        "trials": 40, "char_samples": 400, "points": 2}})
    assert got["verify.json"] == VERIFY_REPORT


def test_tree_path_digests(tmp_path):
    got = run_digests(tmp_path, "sample", {**BASE, "sample": {
        "kind": "wiener_tree", "count": 3, "q": 1}})
    assert {k: got[k] for k in TREE_PATHS} == TREE_PATHS
