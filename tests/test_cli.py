import json
from pathlib import Path

import pytest

from padicsde.cli import main


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
])
def test_bad_config_leaves_no_output(tmp_path, capsys, command, extra, key):
    cfgfile = write_config(tmp_path, {**BASE, **extra})
    out = tmp_path / "bad"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
