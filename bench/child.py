"""The benchmark's child processes; ``run.py`` starts one per measurement.

    python3 bench/child.py setup COMMAND CONFIG
        prints the seconds a fresh process takes to import ``padicsde.cli``
        and validate CONFIG as a ``RunConfig`` for COMMAND.
    python3 bench/child.py trace COMMAND CONFIG OUT SPANS
        runs ``padicsde COMMAND --config CONFIG --out OUT`` in this process
        under the tracer, writes the coarse spans as JSON lines to SPANS
        and prints the per-layer metrics as one JSON line, last.

``padicsde`` must be importable (``run.py`` puts the checkout's ``src``
on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

PADIC_OPS = ("__add__", "__sub__", "__mul__", "inv", "__truediv__")


def setup(command: str, config: str) -> int:
    raw = json.loads(Path(config).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    from padicsde.cli import RunConfig
    RunConfig(raw, command)
    print(repr(time.perf_counter() - t0))
    return 0


def trace(command: str, config: str, out: str, spans: str) -> int:
    origin = time.perf_counter()
    tr = Tracer()
    tr.time_imports()
    import padicsde.cli as cli
    tr.install()

    tally = {"sweeps": 0, "subdivisions": 0, "samples": 0, "bytes": 0}

    def on_solution(sol):
        tally["sweeps"] += sol.iterations
        tally["subdivisions"] += len(sol.subdivisions)

    def on_report(rep):
        tally["samples"] += rep.samples

    def on_write(path):
        tally["bytes"] += Path(path).stat().st_size

    tr.returns.update({
        "sde.solve_picard": on_solution,
        "charexpect.character_product_check": on_report,
        "cli.Artifacts.write_csv": on_write,
        "cli.Artifacts.write_json": on_write,
        "cli.Artifacts.finish": on_write,
    })
    code = cli.main([command, "--config", config, "--out", out])

    cache = tr.originals["measure.cached_sampler"].cache_info()
    lookups = cache.hits + cache.misses
    metrics = {f"{layer}.self_s": tr.self_s[layer] for layer in LAYERS}
    metrics.update({
        "cli.bytes_written": tally["bytes"],
        "cli.artifacts": tr.count("cli.Artifacts.write_csv",
                                  "cli.Artifacts.write_json"),
        "padic.ops": tr.count(*(f"padic.PAdicValue.{op}"
                                for op in PADIC_OPS)),
        "padic.serialized": tr.count("padic.PAdicValue.qp_str"),
        "padic.points": tr.count("padic.BallSpec.point"),
        "charfun.shell_tables": tr.count("charfun.shell_distribution"),
        "measure.draws": tr.count("measure.Gaussian1DSampler.draw_raw"),
        "measure.paths": tr.count("measure.sample_wiener_tree",
                                  "measure.sample_wiener_mahler"),
        "measure.sampler_cache_hit_ratio":
            cache.hits / lookups if lookups else 0.0,
        "antider.cell_rounds": tr.count("antider.cell_round"),
        "sde.sweeps": tally["sweeps"],
        "sde.subdivisions": tally["subdivisions"],
        "sde.program_calls": tr.count("sde.Program.__call__"),
        "evolution.solves": tr.count("evolution.solve_evolution"),
        "evolution.generator_calls": tr.calls_in[
            "evolution.GeneratorSpec.__call__", "evolution.solve_evolution"],
        "evolution.mat_muls": tr.count("evolution.mat_mul"),
        "charexpect.samples": tally["samples"],
    })
    with open(spans, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1 in tr.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start_s": t0 - origin,
                                 "end_s": t1 - origin}) + "\n")
    print(json.dumps(metrics))
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": setup, "trace": trace}[mode](*args))
