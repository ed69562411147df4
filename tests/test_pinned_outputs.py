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

# the evolve_ops bench config (p=5, N=6, depth 4, dim 3, triples 200) at
# seeds 1 and 2, whose perturb_exp is 5 and 4; the operator rows do not
# depend on perturb_exp
EVOLVE_BENCH = {
    1: {"operator.csv":
        "5f6ecb9894e9cbb200a1eea4c6b91c99c7f4d698a4ab750165fceffa58e725e1",
        "evolve.json":
        "58cef2d328e980d230b1413ffeeb333ea3f9ae4c7121b998ca09fe8916dd3e44"},
    2: {"operator.csv":
        "5f6ecb9894e9cbb200a1eea4c6b91c99c7f4d698a4ab750165fceffa58e725e1",
        "evolve.json":
        "7b03d6078a16820c92fb59f6e796bd87526403f664a2301da28a3362adc97595"},
}

# evolve at p=3, N=6, depth 3, radius_exp 1, scale_exp 4, dim 2: the
# first chain level's step p**-1 has a denominator
EVOLVE_RADIUS1 = {
    "operator.csv":
        "1969dd5d19c5a2a16402ed518b89b379d5f70978e29c770783f43074ba375822",
    "evolve.json":
        "140e67ba3c123ca5d888eb6aff7e806282df00b102da3db41ab373eca7c04763",
}

# by-parts, square-decomposition and covariation residuals plus the
# character-product reports; each by-parts trial draws its index, then x's
# and y's values on that index's chain only
VERIFY_REPORT = \
    "e85e7ed3da506d830f5ece172bde1ae1057aa8bb225a8f3127e185e4353fb8de"

# verify at p=3, N=6, depth 6, 3 x 20000 character samples: the
# mc_charprod bench config at bench seed 1, whose probe picks config seed
# 64, the first candidate whose test points total MC_CHAIN_STEPS = 12
# nonzero base-3 digits (the points are 694, 497 and 139)
VERIFY_BENCH = \
    "8b7c67182657d3df0e7a367e933c2c1cc630b9d03d329be48af0362131616629"
MC_CHAIN_STEPS = 12

TREE_PATHS = {
    "path_0000.csv": "5f2858475a199904d7fc9e181be309e29ff60a84aeb489794288e8f26015b09b",
    "path_0001.csv": "21b82ea1848830fb2e8b75f5aaf5c190f1a40546083fc311d47ef7111e3b165c",
    "path_0002.csv": "cf95ca6c93a36a710ac66a972320ee6e008a5f1a230dd60487b68cf248c27989",
}

# first path at other primes: p=5, N=6, depth 4; and p=11, N=5,
# radius_exp 1, depth 2 (two-character digits)
TREE_PATH_P5 = \
    "e5f145ab69a4ae8cc4fc38f85e6d57f5e6c6d878abfe923e3be150212fc345d4"
TREE_PATH_P11 = \
    "f92f7cc6e91ab2983f0e31e05c32cf323fc05fd7e7d6cc18821bc301022885dc"

# series (mahler) sampler at p=3, N=6, depth 4, radius_exp 0; at
# radius_exp 1 the grid leaves Z_p, the domain of its basis, and the run
# is refused
MAHLER_PATHS = {
    0: "02e1dbb51d888a053b416c1544c30b4b80237802ee5dc94cc2374bdc2ca75b66",
}

# one-dimensional draws, 64 samples at N=6, seed 7: p=3 and p=5, unshifted
# and with a nonzero shift gamma (5 at p=3; v=-1, digits 2 1 at p=5)
GAUSSIAN1D = {
    (3, 0): "8b6ba46d49931fe0e166fda7fcad55d400155a5f96e72564599fa68479e94d18",
    (3, 5): "f43a657e31a5f2512c2c46d7b38422751fcd5991f282d1ddc47531b55b70c21e",
    (5, 0): "9516980e9a3f435b23969205f8534e368c63d93357d767380c63aa020e434dd6",
    (5, "QP(p=5,v=-1,d=2 1)"):
        "68dc8b4905e74be5d932087cc1c6f6e7b44efc37d666e0933a8f7a920fc2469b",
}

# steep at p=5, N=6, depth 4
STEEP_P5 = "9fbde4a2b953b36d930834af739e0f9e99b9311337dd8e74beb79c550bac4f5a"

# steep at p=5, N=6, depth 6, seed 1, two samples: the picard_steep bench
# config.  Steep reads no path, so both samples share one solution, and the
# second file, written again from the run's t column, equals the first
STEEP_BENCH = {
    "convergence.json":
        "3def549252bf7e2d18b627c8777cc2b2d3d4a71f66ebe9a16f09a5a62e65a4de",
    "solution_0000.csv":
        "d2edee10fc32ad8a29aa7a6d41ced98415a6b5812bc7c23ac46dea9a9aa78cba",
    "solution_0001.csv":
        "d2edee10fc32ad8a29aa7a6d41ced98415a6b5812bc7c23ac46dea9a9aa78cba",
}


# linear (nonzero drift and diffusion, so every edge reads a path
# increment) at p=5, N=6, depth 4, and at p=2 with radius_exp 1
LINEAR_DW = {
    "p5": ({"prime": 5}, {
        "solution_0000.csv":
            "d106d21edf1b6cfcb592635c719ab8c8cfbc3b37602d97f6865a1e85f997193f",
        "convergence.json":
            "ae03ec0983dff8a018ff8995ceb49af12f9c978873a864a69512ae4466bb7152",
    }),
    "p2_radius1": ({"prime": 2, "radius_exp": 1}, {
        "solution_0000.csv":
            "3d159aec9a13508ccb00b7ca8e5e5039ce4d4b5de47edfc250f85a623587394e",
        "convergence.json":
            "0ea7dc3cedf220c62b9002778ca60b8cc2061522143e7dfa95336e35278ed8da",
    }),
}

# steep (no path read), linear and pure_noise (both read the path) at
# p=3, N=6, seed 7, two samples, on grids the pins above miss: depth 1,
# whose interior grid is the center alone; radius_exp 1; and both
SHALLOW_GRIDS = {"depth1": {"depth": 1}, "radius1": {"radius_exp": 1},
                 "both": {"depth": 1, "radius_exp": 1}}
SHALLOW_SOLUTIONS = {
    ("depth1", "steep"): (
        "7da4d73f41b58b31fde71a67749a09c130c5afebeb048a696587c03b4de77098",
        "7da4d73f41b58b31fde71a67749a09c130c5afebeb048a696587c03b4de77098"),
    ("depth1", "linear"): (
        "81cf7ff48bf7372d4dbbc950edcac9da8faa0b3d34037a11a9f4a129f67c4d0f",
        "584ac87eced4b92a9734785966fe5f495bbc644fc6fc8ad9d7186644dcd61617"),
    ("depth1", "pure_noise"): (
        "20fa1bcfb52e8978dab38678ebf8cdcbce8a1c5e375d109e906ad6f2d0cd0580",
        "ea51bf741c22ee919fbca1c0dbcd9edea7a531cb2cb0f94dc1190f92386d2f83"),
    ("radius1", "steep"): (
        "9abbb475439a3cf971589ec29828329da432d773c6a6a3241fdb8571ee8c93a3",
        "9abbb475439a3cf971589ec29828329da432d773c6a6a3241fdb8571ee8c93a3"),
    ("radius1", "linear"): (
        "cd2729f8703e2d05d05d4b80885c3833fb3c4e3d1d35c042681f739f12468145",
        "eaefbda7823b4b7ca021a6833f34fc6fd8e0b7f1ab2a436b815d8a3a9f9d17b6"),
    ("radius1", "pure_noise"): (
        "76ca3b379a5467d748c01d0b8a2ad84e02d0716dfdc0a7ce952f5240a76dcad6",
        "a3d974e1648ab76dbb3e72362fb5acaf8f1c3b819d688da04ea24fea86a2cb17"),
    ("both", "steep"): (
        "e904a19202877edfa35d0d0709dc51e57c6232045aa4126ade33651a0a487c87",
        "e904a19202877edfa35d0d0709dc51e57c6232045aa4126ade33651a0a487c87"),
    ("both", "linear"): (
        "e472984208d69e58cf92ae274622576e2fe921edca8cc8e2691c955cf9c7e0c2",
        "536989e07f34ae720b00fc278f2ef7854981721abec1cfdd425e5d697b881589"),
    ("both", "pure_noise"): (
        "f49314b5f74e0f7fb8ff635e370439ed972c272594976d89caeff35dd7f21a2b",
        "058988cd3e3a876c55e4eff93eee724e8b4e4b8ccf6efba4633d7065804640b7"),
}


# three samples of steep (no path read: one solution shared by every
# sample), linear and pure_noise (each sample solved on its own path) at
# p=3, N=6, depth 4, seed 7, radius_exp 0 and 1
THREE_SAMPLE_SOLVES = {
    (0, "steep"): {
        "convergence.json":
            "d24e0bbd755e4b4633da6dd80d0be5a7bae445580ecf69b49eab1ba0705e9c28",
        "solution_0000.csv":
            "34e96bdfeb32a9aa7dc0943e7a038c45c89868bf08ffd62802f695c0e47fda58",
        "solution_0001.csv":
            "34e96bdfeb32a9aa7dc0943e7a038c45c89868bf08ffd62802f695c0e47fda58",
        "solution_0002.csv":
            "34e96bdfeb32a9aa7dc0943e7a038c45c89868bf08ffd62802f695c0e47fda58",
    },
    (0, "linear"): {
        "convergence.json":
            "b6b5473f3b633875f3ab245ed949d0321ac69f82dc7792983b34517086c09377",
        "solution_0000.csv":
            "a81b05219dc11340bb38e089c7dee3e13b90f92ee966ac5c74052cceeff0a4ff",
        "solution_0001.csv":
            "bf7fcfb79156c8ee5413517758c69e7ffd56ac6ce13a44ce9faad26e26e93103",
        "solution_0002.csv":
            "c90ab19601103716433661f0fc6ac1df3fb4f6024befdd0a094800932663c735",
    },
    (0, "pure_noise"): {
        "convergence.json":
            "96277b1b0b36fce12325b357540e531edd3eb83f1484b6f3ec8d02bc1c4e1342",
        "solution_0000.csv":
            "3f0433f927cc28fadfd79fcbec11aaba5af40344b0893f1c2f1a10aac239bf6a",
        "solution_0001.csv":
            "c7f7f992bd536e482d355d70ea015a7f0237a20ae0011457e7881c126faa3668",
        "solution_0002.csv":
            "bc68417112ef7d367bc1515d2bd4db516d23df10ac42f82b6da3b320226f5b79",
    },
    (1, "steep"): {
        "convergence.json":
            "400cd065daaf4ea571341dfdaa263786b997da163c8fe2ef377f9317f630ad78",
        "solution_0000.csv":
            "9abbb475439a3cf971589ec29828329da432d773c6a6a3241fdb8571ee8c93a3",
        "solution_0001.csv":
            "9abbb475439a3cf971589ec29828329da432d773c6a6a3241fdb8571ee8c93a3",
        "solution_0002.csv":
            "9abbb475439a3cf971589ec29828329da432d773c6a6a3241fdb8571ee8c93a3",
    },
    (1, "linear"): {
        "convergence.json":
            "1985ae7be77de6bb7eeeececc87adb165939014e7fbc65ac8333018017670897",
        "solution_0000.csv":
            "cd2729f8703e2d05d05d4b80885c3833fb3c4e3d1d35c042681f739f12468145",
        "solution_0001.csv":
            "eaefbda7823b4b7ca021a6833f34fc6fd8e0b7f1ab2a436b815d8a3a9f9d17b6",
        "solution_0002.csv":
            "d1a456b8482e3b69510aef1e6edaa26165d8d3b2410a3f641dd3c05bfde7b8dc",
    },
    (1, "pure_noise"): {
        "convergence.json":
            "55955780b4bc3c12539c354e47424cfcf391241f7056210de0824d884d613999",
        "solution_0000.csv":
            "76ca3b379a5467d748c01d0b8a2ad84e02d0716dfdc0a7ce952f5240a76dcad6",
        "solution_0001.csv":
            "a3d974e1648ab76dbb3e72362fb5acaf8f1c3b819d688da04ea24fea86a2cb17",
        "solution_0002.csv":
            "a19716ec07a83308e373e38373eeaf0641c227ace26127c51dffcc712c6fe262",
    },
}


def _nonzero_digits(k, p):
    count = 0
    while k:
        count += k % p != 0
        k //= p
    return count


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


@pytest.mark.parametrize("seed", sorted(EVOLVE_BENCH))
def test_evolve_bench_config_digests(tmp_path, seed):
    got = run_digests(tmp_path, "evolve", {
        "prime": 5, "precision": 6, "depth": 4, "seed": seed,
        "evolve": {"dim": 3, "scale_exp": 3, "triples": 200,
                   "perturb_exp": 4 + seed % 2}})
    assert {k: got[k] for k in EVOLVE_BENCH[seed]} == EVOLVE_BENCH[seed]


def test_evolve_radius1_digests(tmp_path):
    got = run_digests(tmp_path, "evolve", {
        **BASE, "depth": 3, "radius_exp": 1,
        "evolve": {"dim": 2, "scale_exp": 4, "triples": 12}})
    assert {k: got[k] for k in EVOLVE_RADIUS1} == EVOLVE_RADIUS1


def test_verify_report_digest(tmp_path):
    got = run_digests(tmp_path, "verify", {**BASE, "depth": 3, "verify": {
        "trials": 40, "char_samples": 400, "points": 2}})
    assert got["verify.json"] == VERIFY_REPORT


def test_verify_bench_config_digest(tmp_path):
    got = run_digests(tmp_path, "verify", {
        "prime": 3, "precision": 6, "depth": 6, "seed": 64,
        "verify": {"trials": 20, "char_samples": 20000, "points": 3}})
    assert got["verify.json"] == VERIFY_BENCH
    report = json.loads((tmp_path / "out" / "verify.json").read_text("utf-8"))
    points = [r["t_index"] for r in report["character_products"]]
    assert sum(_nonzero_digits(t, 3) for t in points) == MC_CHAIN_STEPS


def test_tree_path_digests(tmp_path):
    got = run_digests(tmp_path, "sample", {**BASE, "sample": {
        "kind": "wiener_tree", "count": 3, "q": 1}})
    assert {k: got[k] for k in TREE_PATHS} == TREE_PATHS


@pytest.mark.parametrize("extra, digest", [
    ({"prime": 5}, TREE_PATH_P5),
    ({"prime": 11, "precision": 5, "radius_exp": 1, "depth": 2},
     TREE_PATH_P11),
])
def test_tree_path_digest_beyond_p3(tmp_path, extra, digest):
    got = run_digests(tmp_path, "sample", {**BASE, **extra, "sample": {
        "kind": "wiener_tree", "count": 1, "q": 1}})
    assert got["path_0000.csv"] == digest


def test_steep_solution_digest_p5(tmp_path):
    got = run_digests(tmp_path, "solve", {**BASE, "prime": 5,
                                          "solve": {"problem": "steep"}})
    assert got["solution_0000.csv"] == STEEP_P5


def test_steep_bench_config_digest(tmp_path):
    got = run_digests(tmp_path, "solve", {
        "prime": 5, "precision": 6, "depth": 6, "seed": 1,
        "solve": {"problem": "steep", "samples": 2}})
    assert {k: got[k] for k in STEEP_BENCH} == STEEP_BENCH


@pytest.mark.parametrize("prime, gamma", list(GAUSSIAN1D))
def test_gaussian1d_sample_digest(tmp_path, prime, gamma):
    got = run_digests(tmp_path, "sample", {**BASE, "prime": prime, "sample": {
        "kind": "gaussian1d", "count": 64, "gamma": gamma}})
    assert got["samples.csv"] == GAUSSIAN1D[prime, gamma]


@pytest.mark.parametrize("radius_exp", sorted(MAHLER_PATHS))
def test_mahler_path_digest(tmp_path, radius_exp):
    got = run_digests(tmp_path, "sample", {**BASE, "radius_exp": radius_exp,
                                           "sample": {"kind": "wiener_mahler",
                                                      "count": 1, "q": 1}})
    assert got["path_0000.csv"] == MAHLER_PATHS[radius_exp]


@pytest.mark.parametrize("case", sorted(LINEAR_DW))
def test_linear_path_increment_digests(tmp_path, case):
    extra, digests = LINEAR_DW[case]
    got = run_digests(tmp_path, "solve", {**BASE, **extra,
                                          "solve": {"problem": "linear"}})
    assert {k: got[k] for k in digests} == digests


@pytest.mark.parametrize("grid, problem", sorted(SHALLOW_SOLUTIONS))
def test_shallow_grid_solution_digests(tmp_path, grid, problem):
    got = run_digests(tmp_path, "solve", {
        **BASE, **SHALLOW_GRIDS[grid],
        "solve": {"problem": problem, "samples": 2}})
    assert (got["solution_0000.csv"], got["solution_0001.csv"]) == \
        SHALLOW_SOLUTIONS[grid, problem]


@pytest.mark.parametrize("radius_exp, problem", sorted(THREE_SAMPLE_SOLVES))
def test_three_sample_solve_digests(tmp_path, radius_exp, problem):
    got = run_digests(tmp_path, "solve", {
        **BASE, "radius_exp": radius_exp,
        "solve": {"problem": problem, "samples": 3}})
    want = THREE_SAMPLE_SOLVES[radius_exp, problem]
    assert {k: got[k] for k in want} == want
