import csv
import hashlib
import io
import itertools
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from padicsde import cli
from padicsde.antider import by_parts_residual
from padicsde.cli import _CHUNK_ROWS, MAX_PERTURB_EXP, MAX_PRECISION, \
    MAX_SCALE_EXP, SECTIONS, TOLERANCES, TOP, Artifacts, ConfigError, \
    RunConfig, _csv_chunks, _exp_scale_floor, main
from padicsde.measure import derive_seed, wiener_path
from padicsde.padic import PRIME_LIMIT, BallSpec, PAdicValue


def write_config(tmp_path, payload, name="config.json"):
    target = tmp_path / name
    target.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return target


BASE = {"prime": 3, "precision": 6, "depth": 3, "seed": 11}


def read_tree(out_dir: Path):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_charfun_subcommand(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {
        **BASE, "charfun": {"beta": 1.0, "q": 1},
    })
    out = tmp_path / "out"
    assert main(["charfun", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "," in stdout.splitlines()[0]
    shells = (out / "shells.csv").read_text().splitlines()
    assert shells[0] == "m,prob"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    assert "shells.csv" in manifest["artifacts"]


def test_subcommands_are_listed_in_their_order(capsys):
    # argparse lists RUNNERS' keys in --help and in the unknown-subcommand
    # error; quotes round the names vary with the Python version
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{sample,solve,evolve,verify,charfun}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", "config.json"])
    assert exc.value.code == 2
    assert ("invalid choice: bogus (choose from sample, solve, evolve, "
            "verify, charfun)") in capsys.readouterr().err.replace("'", "")


def test_repeat_runs_byte_identical(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE,
        "verify": {"trials": 20, "char_samples": 400, "points": 2},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfgfile), "--out", str(out2)]) == 0
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert tree1 == tree2
    m1 = json.loads(tree1["manifest.json"])
    m2 = json.loads(tree2["manifest.json"])
    assert m1["artifacts"] == m2["artifacts"]


@pytest.mark.parametrize("prime", [2, 3, 5])
@pytest.mark.parametrize("radius_exp", [0, 1])
def test_verify_draws_only_the_by_parts_reads(tmp_path, monkeypatch, prime,
                                              radius_exp):
    # each trial's grids hold a drawn unit times p**v, v in 0..2, exactly
    # at 0, k and the ends of k's chain steps, and zero everywhere else
    trials = []

    def recorded(x, y, k):
        trials.append((x, y, k))
        return by_parts_residual(x, y, k)

    monkeypatch.setattr(cli, "by_parts_residual", recorded)
    cfgfile = write_config(tmp_path, {
        "prime": prime, "precision": 5, "radius_exp": radius_exp,
        "depth": 3, "seed": 2,
        "verify": {"trials": 12, "char_samples": 100, "points": 1}})
    assert main(["verify", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(trials) == 12
    for x, y, k in trials:
        read = {0, k}
        for _level, j, jn, _step in x.chain_steps(k):
            read.update((j, jn))
        for grid in (x, y):
            drawn = {i for i, v in enumerate(grid.values) if not v.is_zero}
            assert drawn == read
            assert all(grid.values[i].m % prime and 0 <= grid.values[i].v < 3
                       for i in drawn)
    assert len({k for _x, _y, k in trials}) > 1


def test_seed_changes_sample_artifacts(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "gaussian1d", "count": 8, "beta": 1.0,
                           "q": 1},
    })
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["sample", "--config", str(cfgfile), "--out", str(out2),
                 "--seed", "999"]) == 0
    assert (out1 / "samples.csv").read_bytes() != \
        (out2 / "samples.csv").read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "gaussian1d", "count": 4, "beta": 1.0,
                           "q": 1},
    })
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("PADICSDE_SEED", "777")
    assert main(["sample", "--config", str(cfgfile), "--out", str(out1)]) == 0
    monkeypatch.delenv("PADICSDE_SEED")
    assert main(["sample", "--config", str(cfgfile), "--out", str(out2),
                 "--seed", "777"]) == 0
    assert (out1 / "samples.csv").read_bytes() == \
        (out2 / "samples.csv").read_bytes()


def test_wiener_sample_paths(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "wiener_tree", "count": 2, "q": 1},
    })
    out = tmp_path / "w"
    assert main(["sample", "--config", str(cfgfile), "--out", str(out)]) == 0
    path_csv = (out / "path_0000.csv").read_text().splitlines()
    assert path_csv[0] == "t,w"
    # canonical serialization contains commas, so fields are quoted
    assert path_csv[1].startswith('"QP(')
    manifest = json.loads((out / "ensemble.json").read_text())
    assert manifest["S"] == 2 and manifest["sampler"] == "tree"


def test_solve_pure_drift_closed_form(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE, "solve": {"problem": "pure_drift", "x0": 2},
    })
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 0
    import csv as csvmod
    from padicsde.padic import PAdicValue
    with open(out / "solution_0000.csv", newline="") as fh:
        rows = list(csvmod.reader(fh))[1:]
    x0 = PAdicValue.from_int(2, 3, 6)
    for t_text, xi_text in rows:
        t = PAdicValue.parse(t_text)
        xi = PAdicValue.parse(xi_text)
        assert xi == x0 + t
    convergence = json.loads((out / "convergence.json").read_text())
    assert convergence["solves"][0]["residual"] == 0.0


@pytest.mark.parametrize("problem, shared", [("steep", True),
                                             ("linear", False)])
def test_solve_shares_only_a_solution_that_read_no_path(tmp_path, monkeypatch,
                                                        problem, shared):
    # steep has no diffusion, so the first sample's solution is every
    # sample's; linear reads its path and solves every sample
    sols = []
    solve = cli.solve_picard

    def recording(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(cli, "solve_picard", recording)
    cfgfile = write_config(tmp_path, {
        **BASE, "solve": {"problem": problem, "samples": 3}})
    assert main(["solve", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(sols) == 3
    assert [s is sols[0] for s in sols[1:]] == [shared, shared]


@pytest.mark.parametrize("problem", ["steep", "linear"])
def test_solve_peak_memory_does_not_grow_with_samples(tmp_path, problem):
    # each sample's path and solution are released before the next path is
    # drawn (steep reads no path, and its one shared solution lives on), so
    # four samples peak no higher than one; the first run warms every cache
    # the later runs read.  A peak is taken above the memory traced when its
    # run starts: objects an earlier traced run freed onto CPython's free
    # lists (linear's path cells, a tuple each) still count as traced
    cfg = {"prime": 5, "precision": 6, "depth": 5, "seed": 1}

    def solve(samples, name):
        cfgfile = write_config(tmp_path, {
            **cfg, "solve": {"problem": problem, "samples": samples}},
            name=f"{name}.json")
        assert main(["solve", "--config", str(cfgfile),
                     "--out", str(tmp_path / name)]) == 0

    solve(1, "warm")
    tracemalloc.start()
    try:
        peaks = []
        for samples in (1, 4):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve(samples, f"s{samples}")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0], peaks


def test_solve_peak_memory_in_path_units(tmp_path):
    # a one-sample steep solve at p=5, N=6, depth 6 (15625 points), its
    # traced peak in units of one sampled tree path's traced size, so the
    # bound holds whatever a Python version's objects cost.  Alive at the
    # peak: the path (1 unit); the solution, one value per point like the
    # path (at most 1 unit); and everything else under 1 unit: the sweep's
    # iterate lists, the t column as text, the exact cells of the interior
    # nodes (a fifth of the grid) and a CSV chunk.  Holding the t column as
    # one str per point, every node's cell, and the path while the CSV was
    # written, as the solve once did, took the peak to 3.4 units
    ball = BallSpec.unit(5, 6)
    cfgfile = write_config(tmp_path, {
        "prime": 5, "precision": 6, "depth": 6, "seed": 1,
        "solve": {"problem": "steep", "samples": 1}})

    def solve(name):
        assert main(["solve", "--config", str(cfgfile),
                     "--out", str(tmp_path / name)]) == 0

    solve("warm")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = wiener_path("tree", ball, 6, 2.0, seed=derive_seed(1, 0))
        unit = tracemalloc.get_traced_memory()[0] - base
        del path
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve("run")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * unit, peak / unit


def test_evolve_releases_its_operator_before_the_perturbation_check(
        tmp_path, monkeypatch):
    # every check that reads the CLI's operator runs first, so the two
    # solves inside perturbation_check never overlap a third operator
    solved, seen = [], []
    solve, check = cli.solve_evolution, cli.perturbation_check

    def recording_solve(*args):
        u = solve(*args)
        solved.append(weakref.ref(u))
        return u

    def spying_check(*args):
        seen.append([ref() is None for ref in solved])
        return check(*args)

    monkeypatch.setattr(cli, "solve_evolution", recording_solve)
    monkeypatch.setattr(cli, "perturbation_check", spying_check)
    cfgfile = write_config(tmp_path, {
        **BASE, "evolve": {"dim": 2, "triples": 12}})
    assert main(["evolve", "--config", str(cfgfile),
                 "--out", str(tmp_path / "ev")]) == 0
    assert seen == [[True]]


def test_evolve_subcommand(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE, "evolve": {"dim": 2, "scale_exp": 3, "perturb_exp": 4,
                           "triples": 12},
    })
    out = tmp_path / "ev"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    report = json.loads((out / "evolve.json").read_text())
    assert report["perturbation"]["identity_residual"] == 0.0
    names = {c["name"]: c["passed"] for c in report["checks"]}
    assert all(names.values())


# -- artifact writing -------------------------------------------------------


def run_to(tmp_path, command, extra):
    out = tmp_path / "out"
    cfgfile = write_config(tmp_path, {**BASE, **extra})
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    return out


def csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL,
               lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def sha256_tag(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


QP_TEXTS = ["QP(p=3,v=0,d=0 0 0 0 0 0)", "QP(p=3,v=-2,d=2 1 0 0 0 1)",
            "QP(p=11,v=4,d=10 0 3)"]


@pytest.mark.parametrize("rows", [
    [],
    [(m, w) for m, w in enumerate([0.1, 1e16, 5e-324, 1e-300, 0.0, 1.0,
                                   123456789.0, 2.5e-07, -0.0])],
    [(QP_TEXTS[k % 3], QP_TEXTS[(k + 1) % 3]) for k in range(5)],
    # several chunks, and a last chunk of one row
    [(k, QP_TEXTS[k % 3]) for k in range(3 * _CHUNK_ROWS + 1)],
    [[*QP_TEXTS, 7, 0.5]] * (_CHUNK_ROWS + 2),
], ids=["empty", "floats", "qp", "chunks", "mixed"])
def test_csv_template_matches_csv_writer(rows):
    header = ["a", "b"]
    chunks = list(_csv_chunks(header, iter(rows)))
    assert "".join(chunks).encode("utf-8") == csv_writer_bytes([header,
                                                                *rows])
    assert all(chunk.count("\n") <= _CHUNK_ROWS for chunk in chunks)


# every CSV kind the CLI writes; the tree path at p = 3, depth 7 and the
# 2500 Gaussian samples each span two chunks
CSV_RUNS = {
    "shells": ("charfun", {"charfun": {"beta": 1.0}}),
    "gaussian1d": ("sample", {"sample": {"kind": "gaussian1d", "count": 2500,
                                         "beta": 1.0, "q": 1}}),
    "tree": ("sample", {"precision": 8, "depth": 7,
                        "sample": {"kind": "wiener_tree", "count": 2,
                                   "q": 1}}),
    "mahler": ("sample", {"radius_exp": 0,
                          "sample": {"kind": "wiener_mahler", "count": 1,
                                     "q": 1}}),
    "solution": ("solve", {"solve": {"problem": "linear", "samples": 2}}),
    "operator": ("evolve", {"evolve": {"dim": 2, "triples": 12}}),
}


@pytest.mark.parametrize("kind", sorted(CSV_RUNS))
def test_csv_artifacts_are_csv_writer_fixed_points(tmp_path, kind):
    out = run_to(tmp_path, *CSV_RUNS[kind])
    files = sorted(out.glob("*.csv"))
    assert files
    for f in files:
        with open(f, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert {len(row) for row in rows} == {len(rows[0])}, f.name
        assert csv_writer_bytes(rows) == f.read_bytes(), f.name


@pytest.mark.parametrize("command, extra", [
    CSV_RUNS["shells"], CSV_RUNS["tree"], CSV_RUNS["solution"],
    CSV_RUNS["operator"],
    ("verify", {"verify": {"trials": 5, "char_samples": 100, "points": 1}}),
], ids=["charfun", "sample", "solve", "evolve", "verify"])
def test_manifest_digests_match_files(tmp_path, command, extra):
    out = run_to(tmp_path, command, extra)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    on_disk = {f.name: sha256_tag(f.read_bytes()) for f in out.iterdir()
               if f.name != "manifest.json"}
    assert manifest["artifacts"] == on_disk


def test_failed_csv_write_removes_its_partial_file(tmp_path):
    art = Artifacts(tmp_path / "out")
    first = art.write_csv("whole.csv", ["k"], [(k,) for k in range(3)])
    target = tmp_path / "out" / "broken.csv"

    def rows():
        for k in range(3 * _CHUNK_ROWS):
            yield (k,)
        assert target.stat().st_size > 0    # two chunks reached the file
        raise RuntimeError("row fault")

    with pytest.raises(RuntimeError, match="row fault"):
        art.write_csv("broken.csv", ["k"], rows())
    assert not target.exists()
    assert art.digests == {"whole.csv": sha256_tag(first.read_bytes())}


def test_error_partway_through_a_csv_leaves_only_whole_files(
        tmp_path, monkeypatch, capsys):
    # two texts per row, 2187 rows per path: fail at about row 2150 of the
    # second path, after its first chunk was written
    real = PAdicValue.qp_str
    calls = itertools.count()
    partial = tmp_path / "err" / "path_0001.csv"

    def failing(self):
        if next(calls) == 2 * 2187 + 2 * 2150:
            assert partial.stat().st_size > 0
            raise RuntimeError("serialization fault")
        return real(self)

    monkeypatch.setattr(PAdicValue, "qp_str", failing)
    cfgfile = write_config(tmp_path, {
        **BASE, "precision": 8, "depth": 7,
        "sample": {"kind": "wiener_tree", "count": 3, "q": 1}})
    out = tmp_path / "err"
    assert main(["sample", "--config", str(cfgfile),
                 "--out", str(out)]) == 1
    assert "serialization fault" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["status"] == "error"
    assert manifest["checks"] == [{"name": "exception", "passed": False,
                                   "error": "serialization fault"}]
    on_disk = {f.name: sha256_tag(f.read_bytes()) for f in out.iterdir()
               if f.name != "manifest.json"}
    assert manifest["artifacts"] == on_disk
    assert sorted(on_disk) == ["path_0000.csv"]


def test_schema_violation_exit_2(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {"prime": 4, "precision": 6,
                                      "depth": 2})
    assert main(["charfun", "--config", str(cfgfile),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config.prime" in err


def test_parse_error_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "prime": 3,\n  oops\n}\n', encoding="utf-8")
    assert main(["charfun", "--config", str(bad),
                 "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_depth_beyond_precision_rejected(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {"prime": 3, "precision": 4,
                                      "depth": 5})
    assert main(["charfun", "--config", str(cfgfile),
                 "--out", str(tmp_path / "z")]) == 2
    assert "depth" in capsys.readouterr().err


def test_negative_seed_override_rejected(tmp_path, capsys, monkeypatch):
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "gaussian1d", "count": 2},
    })
    out = tmp_path / "neg"
    assert main(["sample", "--config", str(cfgfile), "--out", str(out),
                 "--seed", "-5"]) == 2
    assert "--seed" in capsys.readouterr().err
    monkeypatch.setenv("PADICSDE_SEED", "-3")
    assert main(["sample", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "PADICSDE_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_json_true_is_not_an_integer(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {**BASE, "depth": True,
                                      "charfun": {"beta": 1.0}})
    out = tmp_path / "bool"
    assert main(["charfun", "--config", str(cfgfile),
                 "--out", str(out)]) == 2
    assert "config.depth" in capsys.readouterr().err
    assert not out.exists()


def test_constant_with_foreign_prime_rejected(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {
        "prime": 5, "precision": 6, "depth": 2,
        "solve": {"problem": "linear", "alpha": "QP(p=7,v=0,d=1 2 3)"},
    })
    out = tmp_path / "prime"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "config.solve.alpha" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not out.exists()


def test_tolerances_echoed_as_written(tmp_path):
    cfgfile = write_config(tmp_path, {
        **BASE, "tolerances": {"shell_mass": 0}, "charfun": {"q": 1},
    })
    out = tmp_path / "echo"
    assert main(["charfun", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_text()
    assert '"shell_mass": 0,' in manifest
    assert '"tail_tol": 1e-12' in manifest
    # float keys are converted from integers
    assert '"q": 1.0,' in (out / "charfun.json").read_text()


@pytest.mark.parametrize("command, extra, key", [
    ("charfun", {"charfun": {"m_lo": "a"}}, "config.charfun.m_lo"),
    ("charfun", {"charfun": {"m_lo": 1.5}}, "config.charfun.m_lo"),
    ("charfun", {"charfun": {"m_lo": 3, "m_hi": 1}}, "config.charfun.m_lo"),
    ("charfun", {"tolerances": {"shell_mass": "x"}},
     "config.tolerances.shell_mass"),
    ("charfun", {"tolerances": {"tail_tol": -1e-12}},
     "config.tolerances.tail_tol"),
    ("charfun", {"tolerances": {"mc_sigma_factor": 4.0}},
     "config.tolerances.mc_sigma_factor"),
    ("solve", {"solve": {"problem": "polynomial", "coeffs": 5}},
     "config.solve.coeffs"),
    ("solve", {"solve": {"problem": "linear",
                         "alpha": "QP(p=3,v=0,d=1 2 1 1 1 1 1)"}},
     "config.solve.alpha"),
    ("solve", {"solve": {"problem": "linear",
                         "alpha": "QP(p=3,v=0,d=1 2,x=3)"}},
     "config.solve.alpha"),
    # shells whose weights leave the float range
    ("charfun", {"charfun": {"m_lo": -2000, "m_hi": 2000}},
     "config.charfun.m_lo"),
    ("charfun", {"charfun": {"m_lo": 2000}}, "config.charfun.m_lo"),
    ("charfun", {"charfun": {"m_lo": 0, "m_hi": 2000}},
     "config.charfun.m_hi"),
    ("charfun", {"charfun": {"beta": 1e300}}, "config.charfun.beta"),
    ("charfun", {"charfun": {"beta": 1e-300}}, "config.charfun.beta"),
    ("charfun", {"tolerances": {"tail_tol": 0}}, "config.tolerances.tail_tol"),
    ("sample", {"sample": {"kind": "gaussian1d", "beta": 1e300}},
     "config.sample.beta"),
    ("charfun", {"charfun": {"beta": 1e300, "m_lo": 0, "m_hi": 3},
                 "tolerances": {"tail_tol": 1e-300}}, "config.charfun.beta"),
    # path-sampler q so large that a level spread underflows to 0.0
    ("sample", {"prime": 5, "depth": 5,
                "sample": {"kind": "wiener_tree", "q": 116}},
     "config.sample.q"),
    ("sample", {"prime": 5, "sample": {"kind": "wiener_mahler", "q": 100}},
     "config.sample.q"),
    ("solve", {"prime": 5, "depth": 5,
               "solve": {"problem": "zero", "sampler_q": 116}},
     "config.solve.sampler_q"),
    # unknown keys, and keys the run does not read, are still checked
    ("charfun", {"bogus": 1}, "config.bogus"),
    ("charfun", {"charfun": {"btea": 2}}, "config.charfun.btea"),
    ("sample", {"sample": {"kind": "wiener_tree", "gamma": "x"}},
     "config.sample.gamma"),
    ("solve", {"solve": {"problem": "steep", "alpha": "x"}},
     "config.solve.alpha"),
    # floats must be finite
    ("charfun", {"tolerances": {"shell_mass": math.inf}},
     "config.tolerances.shell_mass"),
    ("charfun", {"tolerances": {"tail_tol": math.inf}},
     "config.tolerances.tail_tol"),
    ("charfun", {"charfun": {"beta": math.inf}}, "config.charfun.beta"),
    ("sample", {"sample": {"kind": "gaussian1d", "beta": math.inf}},
     "config.sample.beta"),
    ("charfun", {"charfun": {"q": math.inf}}, "config.charfun.q"),
    # the generator check needs the radial steps k = 0 and 1 below depth
    ("evolve", {"depth": 1, "evolve": {"dim": 1, "triples": 1}},
     "config.depth"),
    ("evolve", {"radius_exp": 1, "depth": 1,
                "evolve": {"dim": 1, "triples": 1}}, "config.depth"),
    # primality is exact only below PRIME_LIMIT
    ("charfun", {"prime": PRIME_LIMIT}, "config.prime"),
    # scale_exp below radius_exp + max((N + (p == 2)) // 2,
    # exp_domain_valuation(p)):
    # the exponential check fails, or (t - s) A leaves the convergence
    # domain of its series
    ("evolve", {"precision": 8, "depth": 2,
                "evolve": {"dim": 1, "triples": 1, "scale_exp": 3}},
     "config.evolve.scale_exp"),
    ("evolve", {"prime": 3, "precision": 4, "radius_exp": 1, "depth": 2,
                "evolve": {"dim": 1, "triples": 1, "scale_exp": 1}},
     "config.evolve.scale_exp"),
    ("evolve", {"radius_exp": 1, "evolve": {"dim": 1, "triples": 1,
                                            "scale_exp": 3}},
     "config.evolve.scale_exp"),
    ("evolve", {"prime": 2, "precision": 5, "depth": 2,
                "evolve": {"dim": 1, "triples": 1, "scale_exp": 2}},
     "config.evolve.scale_exp"),
    # |(t - s) A| = 2**-1, on the boundary of the domain at p = 2
    ("evolve", {"prime": 2, "precision": 2, "depth": 2,
                "evolve": {"dim": 1, "triples": 1, "scale_exp": 1}},
     "config.evolve.scale_exp"),
    # the series sampler's basis lives on Z_p: radius_exp 1 leaves it
    ("sample", {"prime": 3, "radius_exp": 1, "depth": 2,
                "sample": {"kind": "wiener_mahler", "count": 1}},
     "config.sample.kind"),
])
def test_bad_config_leaves_no_output(tmp_path, capsys, command, extra, key):
    cfgfile = write_config(tmp_path, {**BASE, **extra})
    out = tmp_path / "bad"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(key + ":")
    assert not out.exists()


@pytest.mark.parametrize("extra, scale_exp", [
    ({"precision": 8, "depth": 2}, 4),
    ({"radius_exp": 1}, 4),
    ({"prime": 2, "precision": 5, "depth": 2}, 3),
    ({"prime": 2, "precision": 7, "radius_exp": 1, "depth": 2}, 5),
    ({}, 3),
])
def test_evolve_default_scale_exp_passes(tmp_path, extra, scale_exp):
    cfgfile = write_config(tmp_path, {**BASE, **extra,
                                      "evolve": {"dim": 1, "triples": 2}})
    out = tmp_path / "ev"
    assert main(["evolve", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    report = json.loads((out / "evolve.json").read_text())
    assert report["scale_exp"] == scale_exp
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("p, floors", [(2, (2, 2, 2)), (3, (1, 1, 2)),
                                       (5, (1, 1, 2))])
def test_exp_scale_floor_pinned(p, floors):
    # radius_exp + max((N + (p == 2)) // 2, exp_domain_valuation(p)) at
    # N = 2, 3, 4; the domain term decides at p = 2 and at odd p for N < 4
    for n, floor in zip((2, 3, 4), floors):
        for r in (0, 1):
            cfg = SimpleNamespace(prime=p, precision=n, radius_exp=r)
            assert _exp_scale_floor(cfg) == floor + r, (n, r)
        raw = {"prime": p, "precision": n, "depth": 2}
        assert RunConfig({**raw, "evolve": {"scale_exp": floor}},
                         "evolve").section["scale_exp"] == floor
        with pytest.raises(ConfigError, match="config.evolve.scale_exp"):
            RunConfig({**raw, "evolve": {"scale_exp": floor - 1}}, "evolve")


def test_large_prime_validates_quickly():
    cfg = RunConfig({"prime": 2**61 - 1, "precision": 2, "depth": 1},
                    "charfun")
    assert cfg.prime == 2**61 - 1


# Grids above the cap are only validated here, never run.
@pytest.mark.parametrize("command, raw", [
    ("solve", {"prime": 2, "precision": 40, "depth": 40,
               "solve": {"problem": "zero"}}),
    ("sample", {"prime": 2, "precision": 17, "depth": 17,
                "sample": {"kind": "wiener_tree"}}),
    ("sample", {"prime": 3, "precision": 12, "radius_exp": 2, "depth": 9,
                "sample": {"kind": "wiener_mahler"}}),
    ("evolve", {"prime": 317, "precision": 2, "depth": 2}),
    ("verify", {"prime": 100003, "precision": 2, "depth": 1}),
    # the check must not compute 5**(10**9)
    ("verify", {"prime": 5, "precision": 10**9, "depth": 10**9}),
])
def test_grid_cap_rejects_at_depth(command, raw):
    with pytest.raises(ConfigError, match=r"^config\.depth: .* points, "
                                          r"above MAX_GRID_POINTS"):
        RunConfig(raw, command)


# One small config per subcommand and sampler kind: each reads precision.
EXPONENT_BASES = [
    ("charfun", {}),
    ("sample", {"sample": {"kind": "gaussian1d"}}),
    ("sample", {"sample": {"kind": "wiener_tree"}}),
    ("sample", {"sample": {"kind": "wiener_mahler"}}),
    ("solve", {"solve": {"problem": "linear"}}),
    ("evolve", {}),
    ("verify", {}),
]


@pytest.mark.parametrize("value", [MAX_PRECISION + 1, 10**20])
@pytest.mark.parametrize("command, section", EXPONENT_BASES)
def test_precision_above_its_bound_is_refused(tmp_path, capsys, command,
                                              section, value):
    cfgfile = write_config(tmp_path, {"prime": 3, "precision": value,
                                      "depth": 2, **section})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config.precision: value {value} out of range")
    assert not out.exists()


@pytest.mark.parametrize("key, bound", [("scale_exp", MAX_SCALE_EXP),
                                        ("perturb_exp", MAX_PERTURB_EXP)])
@pytest.mark.parametrize("above", [1, 10**20])
def test_evolve_exponent_above_its_bound_is_refused(tmp_path, capsys, key,
                                                    bound, above):
    value = bound + above
    cfgfile = write_config(tmp_path, {**BASE, "evolve": {key: value}})
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config.evolve.{key}: value {value} out of range")
    assert not out.exists()


# Each count key with its bound, in a section that runs quickly below it.
COUNT_BOUNDS = [
    ("sample", {"kind": "gaussian1d"}, "count", cli.MAX_SAMPLE_COUNT),
    ("sample", {"kind": "wiener_tree"}, "count", cli.MAX_SAMPLE_COUNT),
    ("solve", {"problem": "linear"}, "samples", cli.MAX_SOLVE_SAMPLES),
    ("evolve", {}, "triples", cli.MAX_TRIPLES),
    ("verify", {}, "trials", cli.MAX_TRIALS),
    ("verify", {}, "points", cli.MAX_POINTS),
    ("verify", {}, "char_samples", cli.MAX_CHAR_SAMPLES),
]


@pytest.mark.parametrize("above", ["bound + 1", "10**20"])
@pytest.mark.parametrize("command, section, key, bound", COUNT_BOUNDS)
def test_count_above_its_bound_is_refused(tmp_path, capsys, command, section,
                                          key, bound, above):
    value = bound + 1 if above == "bound + 1" else 10**20
    cfgfile = write_config(tmp_path, {**BASE,
                                      command: {**section, key: value}})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config.{command}.{key}: value {value} out of range")
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, bound", COUNT_BOUNDS)
def test_count_bounds_admit_their_values(command, section, key, bound):
    # validated only: a run at the bound would take minutes
    sec = RunConfig({**BASE, command: {**section, key: bound}},
                    command).section
    assert sec[key] == bound


@pytest.mark.parametrize("command, section", EXPONENT_BASES)
def test_exponent_bounds_admit_their_values(command, section):
    raw = {"prime": 3, "precision": MAX_PRECISION, "depth": 2, **section}
    assert RunConfig(raw, command).precision == MAX_PRECISION
    if command == "evolve":
        sec = RunConfig({**raw, "evolve": {"scale_exp": MAX_SCALE_EXP,
                                           "perturb_exp": MAX_PERTURB_EXP}},
                        command).section
        assert (sec["scale_exp"], sec["perturb_exp"]) == (MAX_SCALE_EXP,
                                                          MAX_PERTURB_EXP)
        # the least perturb_exp is still 1
        assert RunConfig({**raw, "evolve": {"perturb_exp": 1}},
                         command).section["perturb_exp"] == 1
        with pytest.raises(ConfigError, match=r"^config\.evolve\.perturb_exp"):
            RunConfig({**raw, "evolve": {"perturb_exp": 0}}, command)


def test_readme_states_the_config_bounds():
    # the config reference in the README gives each bound's value
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    for name in ("MAX_GRID_POINTS", "MAX_PRECISION", "MAX_PERTURB_EXP",
                 "MAX_SAMPLE_COUNT", "MAX_SOLVE_SAMPLES", "MAX_TRIPLES",
                 "MAX_TRIALS", "MAX_POINTS", "MAX_CHAR_SAMPLES"):
        assert f"cli.{name} = {getattr(cli, name)}" in text, name
    # "scale_exp and perturb_exp are at most cli.MAX_SCALE_EXP and
    # cli.MAX_PERTURB_EXP = 128"
    assert "cli.MAX_SCALE_EXP and" in text
    assert MAX_SCALE_EXP == MAX_PERTURB_EXP


def test_readme_config_reference_gives_each_default():
    # each section of the README's config reference lists every key of its
    # table with the default value (a string key lists its choices; a
    # required key takes the first), at the reference's prime and precision
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    ref = json.loads(re.sub(r"//[^\n]*", "", block))
    top = {k: ref[k] for k in ("prime", "precision", "depth")}
    for command, table in SECTIONS.items():
        stated = {k: v.split("|")[0] if isinstance(v, str) else v
                  for k, v in ref[command].items()}
        assert set(stated) == set(table), command
        required = {k: v for k, v in stated.items() if table[k][1] is ...}
        assert RunConfig({**top, command: required}, command).section == \
            RunConfig({**top, command: stated}, command).section, command


@pytest.mark.parametrize("p", [2, 3, 5])
def test_default_scale_exp_is_within_its_bound(p):
    # the default scale_exp is the floor (or 3) of every evolve grid that
    # fits MAX_GRID_POINTS at the largest precision
    levels = 1
    while p ** (levels + 1) <= cli.MAX_GRID_POINTS:
        levels += 1
    for radius_exp in range(levels - 1):
        raw = {"prime": p, "precision": MAX_PRECISION,
               "radius_exp": radius_exp, "depth": 2}
        scale_exp = RunConfig(raw, "evolve").section["scale_exp"]
        assert 3 <= scale_exp <= MAX_SCALE_EXP


@pytest.mark.parametrize("command, raw", [
    ("verify", {"prime": 2, "precision": 16, "depth": 16}),
    ("solve", {"prime": 5, "precision": 7, "depth": 7,
               "solve": {"problem": "zero"}}),
    ("evolve", {"prime": 313, "precision": 2, "depth": 2}),
    # gaussian1d samples and charfun build no grid
    ("sample", {"prime": 2, "precision": 40, "depth": 40,
                "sample": {"kind": "gaussian1d"}}),
    ("charfun", {"prime": 2, "precision": 40, "depth": 40}),
])
def test_grid_cap_admits_grids_up_to_it(command, raw):
    RunConfig(raw, command)


# One tiny valid config per subcommand.  The boundary test sets each key of
# the schema tables that the subcommand reads, the section objects
# themselves and one unknown key per level to every value below: a run
# either succeeds or exits 2 naming the key, and an exit 2 writes nothing.
BOUNDARY_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                   "0": 0, "1": 1, "-1": -1, "1e308": 1e308, "true": True,
                   "x": "x", "[]": [], "{}": {}, "2**64": 2**64,
                   "null": None}
# a 2**64 size allocates p**(2**64) points or never ends
UNBOUNDED_SIZES = {"count", "samples", "trials", "char_samples", "points",
                   "triples"}
BOUNDARY_BASES = {
    "charfun": ("charfun", {"charfun": {"beta": 1.0}}),
    "gaussian1d": ("sample", {"sample": {"kind": "gaussian1d", "count": 2}}),
    "wiener_tree": ("sample", {"sample": {"kind": "wiener_tree",
                                          "count": 1}}),
    "linear": ("solve", {"solve": {"problem": "linear"}}),
    "polynomial": ("solve", {"solve": {"problem": "polynomial"}}),
    "evolve": ("evolve", {"evolve": {"dim": 1, "triples": 1}}),
    "verify": ("verify", {"verify": {"trials": 1, "char_samples": 100,
                                     "points": 1}}),
}


def _boundary_cases():
    for base, (command, _) in BOUNDARY_BASES.items():
        paths = [*TOP, "bogus", "tolerances", "tolerances.bogus",
                 *(f"tolerances.{k}" for k in TOLERANCES), command,
                 f"{command}.bogus",
                 *(f"{command}.{k}" for k in SECTIONS[command])]
        for path in paths:
            for name in BOUNDARY_VALUES:
                if name == "2**64" and path.split(".")[-1] in UNBOUNDED_SIZES:
                    continue
                yield pytest.param(base, path, name,
                                   id=f"{base}-{path}={name}")


@pytest.mark.parametrize("base, path, value", _boundary_cases())
def test_schema_boundary(tmp_path, capsys, base, path, value):
    command, section = BOUNDARY_BASES[base]
    cfg = json.loads(json.dumps({"prime": 3, "precision": 4, "depth": 2,
                                 **section}))
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = BOUNDARY_VALUES[value]
    out = tmp_path / "out"
    code = main([command, "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert f"config.{path}" in capsys.readouterr().err
        assert not out.exists()


# -- the exit-code contract --------------------------------------------------


@pytest.mark.parametrize("command, section, key", [
    ("solve", {"solve": {"problem": "zero", "sampler_q": 500}},
     "config.solve.sampler_q"),
    ("sample", {"sample": {"kind": "wiener_tree", "q": 500}},
     "config.sample.q"),
])
def test_path_q_whose_level_spread_overflows_exits_2(tmp_path, capsys,
                                                      command, section, key):
    # at radius_exp 1 the level-0 spread is 5**q, beyond the floats
    cfgfile = write_config(tmp_path, {"prime": 5, "precision": 6,
                                      "radius_exp": 1, "depth": 2, **section})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{key}: value 500.0: the level-0 spread 5**500.0 leaves the float "
        "range\n")
    assert not out.exists()


def test_failing_check_exits_1_with_a_fail_manifest(tmp_path, capsys,
                                                    monkeypatch):
    # the second path is moved off zero at the center, so its check fails
    sampled = cli.wiener_path

    def moved(*args, seed, **kwargs):
        path = sampled(*args, seed=seed, **kwargs)
        if seed != cli.derive_seed(BASE["seed"], 1):
            return path
        one = PAdicValue.one(path.p, path.n)
        return replace(path, values=(one,) + path.values[1:])

    monkeypatch.setattr(cli, "wiener_path", moved)
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "wiener_tree", "count": 3}})
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfgfile), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"FAIL {out / 'manifest.json'} "
                            "(path_0001_zero_at_center)\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "fail"
    assert [c["passed"] for c in manifest["checks"]] == [True, False, True]
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(manifest["artifacts"]) == sorted(on_disk) == [
        "ensemble.json", "path_0000.csv", "path_0001.csv", "path_0002.csv"]


@pytest.mark.parametrize("case", ["unreadable", "not_an_object", "env_seed"])
def test_refusals_before_the_run_exit_2(tmp_path, capsys, monkeypatch, case):
    cfgfile = write_config(tmp_path, {**BASE, "charfun": {"beta": 1.0}})
    want = {"not_an_object": "config: top level must be an object\n",
            "env_seed": "PADICSDE_SEED: expected an integer\n"}
    if case == "unreadable":
        cfgfile = tmp_path / "missing.json"
    elif case == "not_an_object":
        cfgfile.write_text("[3, 6, 2]", encoding="utf-8")
    else:
        monkeypatch.setenv("PADICSDE_SEED", "abc")
    out = tmp_path / "out"
    assert main(["charfun", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if case == "unreadable":
        assert err.startswith("config: ") and "missing.json" in err
    else:
        assert err == want[case]
    assert not out.exists()


def test_sampler_cache_serves_repeated_laws(tmp_path):
    # each path of a run asks for the same level laws again, and
    # ``cached_sampler``, the one cache of the laws, answers the repeats
    cli.cached_sampler.cache_clear()
    cfgfile = write_config(tmp_path, {
        **BASE, "sample": {"kind": "wiener_tree", "count": 3}})
    assert main(["sample", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")]) == 0
    info = cli.cached_sampler.cache_info()
    assert info.misses == BASE["depth"]
    assert info.hits > 0
