"""Self-tests of the benchmark: traced counters against values known
independently of the tracer, and the result contract of ``run.py``.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Run from the root of a checkout; takes about 30 s.  The counters are
checked against the artifacts a traced run writes and against grid
arithmetic, so a call the tracer fails to wrap (a name bound by import
that it did not rebind, say) shows up as an undercount.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import OUT, ROOT, _child_env, _nonzero_digits  # noqa: E402


def _traced(command: str, cfg: dict) -> tuple[dict, Path]:
    """Run one traced CLI process; return its metrics and output dir."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "child", "trace", command,
                           str(config), str(out), str(work / "spans.jsonl")],
                          env=_child_env(), check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout.splitlines()[-1]), out


def _common(metrics: dict, out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["status"] == "pass"
    assert metrics["cli.artifacts"] == len(manifest["artifacts"])
    assert metrics["cli.bytes_written"] == sum(
        f.stat().st_size for f in out.iterdir())
    shutil.rmtree(out.parent)


def test_sde_sweeps_match_convergence_report():
    p, depth, samples = 5, 4, 2
    metrics, out = _traced("solve", {
        "prime": p, "precision": 6, "depth": depth, "seed": 3,
        "solve": {"problem": "steep", "samples": samples}})
    report = json.loads((out / "convergence.json").read_text("utf-8"))
    solves = report["solves"]
    assert metrics["sde.sweeps"] == sum(s["iters"] for s in solves) > 0
    assert metrics["sde.subdivisions"] == sum(
        len(s["subdivisions"]) for s in solves)
    # one draw per nonzero-digit edge of the tree, per sampled path
    assert metrics["measure.draws"] == samples * (p**depth - 1)
    assert metrics["measure.paths"] == samples
    assert metrics["sde.program_calls"] > 0
    assert metrics["antider.cell_rounds"] > 0
    _common(metrics, out)


def test_measure_draws_match_chain_steps():
    p, depth, samples, points = 3, 4, 300, 3
    metrics, out = _traced("verify", {
        "prime": p, "precision": 6, "depth": depth, "seed": 5,
        "verify": {"trials": 2, "char_samples": samples,
                   "points": points}})
    report = json.loads((out / "verify.json").read_text("utf-8"))
    steps = sum(_nonzero_digits(r["t_index"], p)
                for r in report["character_products"])
    # each character sample draws once per chain step of its test point;
    # the one tree path draws once per nonzero-digit edge
    assert metrics["measure.draws"] == samples * steps + p**depth - 1
    assert metrics["charexpect.samples"] == points * samples
    assert metrics["measure.paths"] == 1
    assert metrics["sde.sweeps"] == 0
    _common(metrics, out)


def test_generator_calls_are_whole_sweeps():
    p, depth = 5, 4
    metrics, out = _traced("evolve", {
        "prime": p, "precision": 6, "depth": depth, "seed": 0,
        "evolve": {"dim": 3, "triples": 20}})
    interior = (p**depth - 1) // (p - 1)      # 156 nodes with children
    calls = metrics["evolution.generator_calls"]
    assert calls > 0 and calls % interior == 0, calls
    # the CLI's own solve plus the two inside perturbation_check
    assert metrics["evolution.solves"] == 3
    assert metrics["evolution.mat_muls"] > 0
    assert metrics["measure.draws"] == 0
    _common(metrics, out)


def test_path_writes_count_every_point():
    p, depth, count = 5, 3, 3
    metrics, out = _traced("sample", {
        "prime": p, "precision": 6, "depth": depth, "seed": 4,
        "sample": {"kind": "wiener_tree", "count": count}})
    size = p**depth
    assert metrics["measure.draws"] == count * (size - 1)
    assert metrics["measure.paths"] == count
    assert metrics["padic.points"] == count * size
    assert metrics["padic.serialized"] == 2 * count * size   # t and w
    assert metrics["cli.artifacts"] == count + 1
    _common(metrics, out)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_result_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "evolve_ops", "--seed", "7",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected


def test_refuses_without_sources():
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "paths_write", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
