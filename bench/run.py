"""Benchmark of the ``padicsde`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's config is generated from
``--seed``.  With ``--trace 0`` the run times fresh ``padicsde`` processes,
one at a time, for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced processes with traced in-process runs
(``child.py trace``) and reports the per-layer metrics.  Every process's
outputs are checked: exit 0, manifest status ``pass``, artifact digests
equal to the files and to every other process of the run, and the
workload's own output shape.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BUDGET_S = 170.0          # every run ends within 180 s
MIN_REPEATS = 3           # timed CLI processes per run, whatever --seconds
MIN_TRACED = 2            # traced processes per traced run
MIN_SETUP = 9             # set-up processes per run
DETERMINISTIC = ("padic.ops", "measure.draws", "sde.sweeps",
                 "evolution.generator_calls", "cli.bytes_written")


# -- host speed ---------------------------------------------------------------

# The host's speed drifts by 20-40% within seconds (other tenants share the
# cores), and it moves a process's time and the reference loop's together.
# Every time is therefore scaled to the loop's nominal time, taken as the
# mean of the loops run just before and just after the measured process.
REF_ITERS = 80000
REF_NOMINAL_S = 0.08      # median loop time on the 2-core Xeon host
_MASK = (1 << 64) - 1


def reference_loop() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work:
    64-bit integer mixing, dict updates and ``Fraction`` sums, the kind of
    operations the package spends its time in."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    z = 0x9E3779B97F4A7C15
    for i in range(REF_ITERS):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + i) & _MASK
        key = z & 255
        table[key] = table.get(key, 0) + (z >> 40) % 3125
        if i % 8 == 0:
            acc += Fraction(table[key], 5 ** (1 + i % 6))
    return time.perf_counter() - t0


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]      # seed -> config
    units: int                         # work units of one process
    outputs: Callable[[dict], dict]    # config -> {artifact: CSV rows|None}


def _seeded(base: dict) -> Callable[[int], dict]:
    return lambda seed: {**base, "seed": seed}


def _evolve_config(seed: int) -> dict:
    return {"prime": 5, "precision": 6, "depth": 4, "seed": seed,
            "evolve": {"dim": 3, "scale_exp": 3, "triples": 200,
                       "perturb_exp": 4 + seed % 2}}


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_charprod", "verify",
        _seeded({"prime": 3, "precision": 6, "depth": 6,
                 "verify": {"trials": 20, "char_samples": 20000,
                            "points": 3}}),
        units=3 * 20000,
        outputs=lambda cfg: {"verify.json": None}),
    Workload(
        "picard_steep", "solve",
        _seeded({"prime": 5, "precision": 6, "depth": 6,
                 "solve": {"problem": "steep", "samples": 2}}),
        units=2 * 5**6,
        outputs=lambda cfg: {"convergence.json": None,
                             "solution_0000.csv": 5**6,
                             "solution_0001.csv": 5**6}),
    Workload(
        "evolve_ops", "evolve", _evolve_config,
        units=5**4,
        outputs=lambda cfg: {"evolve.json": None, "operator.csv": 200}),
    Workload(
        "paths_write", "sample",
        _seeded({"prime": 5, "precision": 6, "depth": 5,
                 "sample": {"kind": "wiener_tree", "count": 16}}),
        units=16 * 5**5,
        outputs=lambda cfg: {"ensemble.json": None,
                             **{f"path_{i:04d}.csv": 5**5
                                for i in range(16)}}),
)}

# ``verify`` draws once per chain step (nonzero base-p digit) of each test
# point, and the program picks the points from the config seed: 9 to 16
# steps for seeds 0-7.  Candidate config seeds are probed with a cheap run
# and the first whose points total MC_CHAIN_STEPS is kept, so that every
# --seed does the same work.
MC_CHAIN_STEPS = 12
MC_CANDIDATES = 64
MC_PROBE_SAMPLES = 100


def _nonzero_digits(k: int, p: int) -> int:
    count = 0
    while k:
        count += k % p != 0
        k //= p
    return count


def _t_indexes(out: Path) -> list:
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    return [r["t_index"] for r in report["character_products"]]


# -- child processes ----------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    log: str


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PADICSDE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, log: Path, deadline: float) -> Child:
    """Run one Python child to completion: wall time from launch to exit,
    peak RSS of this child alone (``wait4``), killed at ``deadline``."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    exe = sys.executable
    t0 = time.perf_counter()
    pid = os.posix_spawn(exe, [exe, *argv], _child_env(),
                         file_actions=actions)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                            _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_maxrss / 1024.0,
                 log.read_text(encoding="utf-8", errors="replace"))


def inspect_output(wl: Workload, cfg: dict, child: Child, out: Path):
    """Problems with one process's outputs, and its artifact digests."""
    if child.code != 0:
        return [f"exit {child.code}: {child.log.strip()[-300:]}"], None
    try:
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"], None
    digests = manifest.get("artifacts", {})
    problems = []
    if manifest.get("status") != "pass":
        problems.append(f"manifest status {manifest.get('status')!r}")
    expected = wl.outputs(cfg)
    files = {p.name for p in out.iterdir()} - {"manifest.json"}
    if files != set(digests) or files != set(expected):
        problems.append(f"artifacts {sorted(files)}, manifest lists "
                        f"{sorted(digests)}")
        return problems, digests
    for name, digest in digests.items():
        data = (out / name).read_bytes()
        if digest != f"sha256:{hashlib.sha256(data).hexdigest()}":
            problems.append(f"{name}: sha256 differs from the manifest")
        rows, lines = expected[name], data.count(b"\n")
        if rows is not None and lines - 1 != rows:
            problems.append(f"{name}: {lines - 1} rows, expected {rows}")
    if "_t_index" in cfg and _t_indexes(out) != cfg["_t_index"]:
        problems.append(f"test points {_t_indexes(out)} differ from the "
                        f"probe's {cfg['_t_index']}")
    return problems, digests


# -- the run ------------------------------------------------------------------------


class Run:
    """State of one benchmark invocation."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None      # artifact digests of the first good run
        self.ref_s: list[float] = []
        self._n = 0

    def _path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:04d}-{stem}"

    def write_config(self, cfg: dict) -> Path:
        path = self._path("config.json")
        public = {k: v for k, v in cfg.items() if not k.startswith("_")}
        path.write_text(json.dumps(public, sort_keys=True), encoding="utf-8")
        return path

    def cli(self, config: Path) -> tuple[Child, Path]:
        out = self._path("out")
        child = spawn(["-m", "padicsde.cli", self.wl.command, "--config",
                       str(config), "--out", str(out)],
                      self._path("cli.log"), self.deadline)
        return child, out

    def cli_traced(self, config: Path, spans: Path) -> tuple[Child, Path]:
        out = self._path("out")
        child = spawn(["-m", "child", "trace", self.wl.command, str(config),
                       str(out), str(spans)],
                      self._path("trace.log"), self.deadline)
        return child, out

    def config(self) -> dict:
        """The workload's config for this seed; ``verify`` configs are
        pinned to MC_CHAIN_STEPS chain steps."""
        cfg = self.wl.config(self.seed)
        if self.wl.command != "verify":
            return cfg
        for i in range(MC_CANDIDATES):
            probe = {**cfg, "seed": self.seed * MC_CANDIDATES + i,
                     "verify": {**cfg["verify"],
                                "char_samples": MC_PROBE_SAMPLES}}
            child, out = self.cli(self.write_config(probe))
            if child.code != 0:
                return cfg      # the measured processes report the failure
            picked = _t_indexes(out)
            shutil.rmtree(out)
            steps = sum(_nonzero_digits(t, cfg["prime"]) for t in picked)
            if steps == MC_CHAIN_STEPS:
                return {**cfg, "seed": probe["seed"], "_t_index": picked}
        raise RuntimeError("no candidate seed with the pinned chain steps")

    def record(self, child: Child, cfg: dict, out: Path, what: str) -> bool:
        """Check one process's outputs; it fails unless they are correct
        and its digests equal those of every earlier process of the run."""
        self.attempted += 1
        problems, digests = inspect_output(self.wl, cfg, child, out)
        if digests is not None and not problems:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("artifact digests differ from the run's "
                                "first process")
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.fail(f"{what}: " + "; ".join(problems))
        return not problems

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def speed_factor(self) -> float:
        """Scale to nominal host speed for the time measured since the last
        reference loop; runs the next one."""
        self.ref_s.append(reference_loop())
        return REF_NOMINAL_S * 2 / (self.ref_s[-2] + self.ref_s[-1])

    def setup_time(self, config: Path) -> float:
        """Seconds a fresh process takes to import ``padicsde.cli`` and
        validate the config."""
        child = spawn(["-m", "child", "setup", self.wl.command, str(config)],
                      self._path("setup.log"), self.deadline)
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.log.strip()}")
        return float(child.log.split()[-1])

    def keep_going(self, started: float, seconds: float,
                   enough: bool) -> bool:
        """Whether to start another repeat: while ``seconds`` last or too
        few samples exist, and never past the run's time budget."""
        now = time.monotonic()
        return now < self.deadline and (now - started < seconds or
                                        not enough)


def measure_end_to_end(run: Run, cfg: dict, seconds: float):
    """Time CLI processes for ``seconds``, each followed by a set-up
    process, so both samples spread over the same stretch of the run."""
    config = run.write_config(cfg)
    run.setup_time(config)              # warms the byte-code cache
    run.ref_s.append(reference_loop())
    s = {name: [] for name in ("wall_s", "wall_raw_s", "setup_s",
                               "setup_raw_s", "peak_rss_mb")}

    def add_setup():
        setup = run.setup_time(config)
        s["setup_s"].append(setup * run.speed_factor())
        s["setup_raw_s"].append(setup)

    started = time.monotonic()
    while run.keep_going(started, seconds,
                         len(s["wall_s"]) >= MIN_REPEATS):
        child, out = run.cli(config)
        s["wall_s"].append(child.wall_s * run.speed_factor())
        s["wall_raw_s"].append(child.wall_s)
        s["peak_rss_mb"].append(child.rss_mb)
        run.record(child, cfg, out, "cli")
        add_setup()
    while len(s["setup_s"]) < MIN_SETUP:
        add_setup()
    wall = statistics.median(s["wall_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "work_per_s": (run.wl.units / wall, "1/s"),
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]), "MB"),
    }
    return metrics, s


def measure_layers(run: Run, cfg: dict, seconds: float, spans: Path):
    """Alternate untraced and traced processes for ``seconds``."""
    config = run.write_config(cfg)
    run.setup_time(config)              # warms the byte-code cache
    run.ref_s.append(reference_loop())
    walls, traced_walls, results = [], [], []
    started = time.monotonic()
    while run.keep_going(started, seconds, len(results) >= MIN_TRACED):
        child, out = run.cli(config)
        walls.append(child.wall_s * run.speed_factor())
        run.record(child, cfg, out, "cli")

        child, out = run.cli_traced(config, spans)
        factor = run.speed_factor()
        traced_walls.append(child.wall_s * factor)
        if not run.record(child, cfg, out, "traced"):
            continue
        metrics = json.loads(child.log.splitlines()[-1])
        moved = [name for name in DETERMINISTIC
                 if results and metrics[name] != results[0][name]]
        if moved:
            run.fail(f"traced counters {moved} differ from the first "
                     "traced process")
            continue
        results.append({name: value * factor if name.endswith("_s")
                        else value for name, value in metrics.items()})
    if not results:
        raise RuntimeError("no traced process succeeded")
    out, samples = {}, {}
    for name in results[0]:
        values = [r[name] for r in results]
        if name.endswith("_s") or name.endswith("_ratio"):
            out[name] = (statistics.median(values),
                         "s" if name.endswith("_s") else "ratio")
            samples[name] = values
        else:
            unit = "bytes" if name.endswith("bytes_written") else "count"
            out[name] = (statistics.median_low(values), unit)
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls), "ratio")
    samples.update(wall_s=walls, traced_wall_s=traced_walls)
    return out, samples


def _summary(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def host_stamp() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy,
            "loadavg_at_start": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "padicsde" / "cli.py").is_file():
        print(f"error: no padicsde sources under {SRC}; run from the root "
              "of a padicsde checkout", file=sys.stderr)
        return 2

    host = host_stamp()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = Run(wl, args.seed, work)
        cfg = run.config()
        if args.trace:
            metrics, samples = measure_layers(
                run, cfg, args.seconds, OUT / f"{stem}.spans.jsonl")
        else:
            metrics, samples = measure_end_to_end(run, cfg, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_ratio = {run.failed / max(run.attempted, 1)!r} ratio "
          f"({run.failed} of {run.attempted})")
    samples["reference_loop_s"] = run.ref_s
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "host": host,
        "artifact_digests": run.reference,
        "samples": {name: _summary(v) for name, v in samples.items()},
        "failures": run.failures,
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures and run.reference is not None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
