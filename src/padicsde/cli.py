"""Configuration-driven experiment runner.

Usage: ``padicsde <subcommand> --config FILE [--seed S] [--out DIR]`` with
subcommands ``sample``, ``solve``, ``evolve``, ``verify`` and ``charfun``.
The config is a JSON document checked against the tables ``TOP``,
``TOLERANCES`` and ``SECTIONS`` below before any computation runs; the
seed may be overridden by ``--seed`` or the ``PADICSDE_SEED`` environment
variable (seed only; nothing else is read from the environment).  Every
run writes its artifacts plus a ``manifest.json`` echoing the config, the
tolerances, a SHA-256 content hash per artifact and the overall status; a
run repeated with the same config and seed produces byte-identical
artifacts.

Exit codes: 0 when all asserted checks pass, 1 on an assertion failure
(the failing report path is printed), 2 on a schema violation, unknown
keys and non-finite numbers included (the message carries the config line
for parse errors and the key path otherwise).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import chain, islice, starmap
from pathlib import Path

from .antider import GridFunction, by_parts_residual, covariation, \
    square_decomposition_residual
from .charexpect import character_product_check
from .charfun import GaussianSpec, shell_bounds, shell_distribution
from .evolution import (
    ExpEvolution,
    GeneratorSpec,
    generating_operator,
    perturbation_check,
    solve_evolution,
)
from .measure import MonteCarloEnsemble, _series_ball_ok, cached_sampler, \
    derive_seed, path_laws, wiener_path
from .padic import BallSpec, PAdicValue, _is_prime, exp_domain_valuation
from .sde import (
    SDEProblem,
    constant_program,
    linear_state_program,
    locally_constant_program,
    polynomial_program,
    solve_picard,
    zero_program,
)


class ConfigError(Exception):
    pass


def _seed_override(source: str, seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"{source}: value {seed} out of range")
    return seed


# -- config schema ------------------------------------------------------------------


def _in_shell_bounds(m: int, cfg: "RunConfig") -> bool:
    lowest, highest = shell_bounds(cfg.prime, cfg.tolerances["tail_tol"])
    return lowest <= m <= highest


def _exp_scale_floor(cfg: "RunConfig") -> int:
    """Least ``evolve.scale_exp`` at which the solved flow agrees with
    ``EXP((t - s) A)`` at N - 1 digits.  The two differ from second order
    on, by terms of norm at most ``|(t - s) A|**2`` (times ``|1/2| = 2`` at
    p = 2), and ``|t - s| <= p**radius_exp``.  The floor also keeps
    ``(t - s) A`` in the convergence domain ``|x| < p**(-1/(p-1))`` of the
    exponential series, that is v >= ``exp_domain_valuation(p)``."""
    two = cfg.prime == 2
    return cfg.radius_exp + max((cfg.precision + two) // 2,
                                exp_domain_valuation(cfg.prime))


# The largest grid, p**(radius_exp + depth) points, that sample (path
# kinds), solve, evolve and verify may build.  Peak RSS grows by about
# 0.3 kB per grid point in sample, 0.4 kB in verify, 0.7 kB in solve and
# 13 kB in evolve at dim 8 (CPython 3.11 on x86-64), so no run at the cap
# needs much more than 1.3 GB.
MAX_GRID_POINTS = 100_000

# Bounds on the exponents of the p**k a run builds.  A value is kept mod
# p**precision, at most 5.3 kbit at the bound (p < PRIME_LIMIT, 82 bits).
MAX_PRECISION = 64
# Above every scale_exp floor (radius_exp < precision).  At dim 8, p = 2 and
# 1024 grid points, evolve's peak RSS was 38 MB at scale_exp 33 and 51 MB at
# 128, so about 2 GB at a full grid; p**perturb_exp enters A + B, whose
# flow costs the same.
MAX_SCALE_EXP = MAX_PERTURB_EXP = 2 * MAX_PRECISION

# Bounds on the counts, each at least 4x its largest repository config
# (count 2500, samples 3, triples 200, trials 200, points 3, char_samples
# 20000).  Costs measured in process at p = 3, N = 6, depth 6 (CPython 3.11
# on x86-64): a path takes 2.3 us and a linear solve 8.6 us a grid point,
# 0.23 s and 0.86 s at MAX_GRID_POINTS.
MAX_SAMPLE_COUNT = 10_000      # a gaussian1d draw and row (5 us) or a path
MAX_SOLVE_SAMPLES = 1_000      # a path and a solve each
MAX_TRIPLES = 10_000           # 0.1 ms each at dim 3, depth 4
MAX_TRIALS = 10_000            # 0.07 ms each
MAX_POINTS = 1_000             # char_samples samples each
MAX_CHAR_SAMPLES = 1_000_000   # 4 us a sample and point: 4 s a point


# Each table maps a key to (kind, default, range predicate).  The kind is
# int, float (finite; an integer is converted), str, PAdicValue (an integer
# or a QP(...) string) or list (of PAdicValue constants).  A default is a
# value, or a function of the config and the section's values so far; the
# default ``...`` makes the key required, and None makes it optional, with
# null meaning absent.  The predicate gets the converted value and the
# config, whose top level and tolerances are checked by then.
TOP = {
    "prime": (int, ..., lambda v, _: _is_prime(v)),
    "precision": (int, ..., lambda v, _: v >= 2),
    "radius_exp": (int, 0, lambda v, _: v >= 0),
    "depth": (int, ..., lambda v, _: v >= 1),
    "seed": (int, 0, lambda v, _: v >= 0),
    "out": (str, "run", None),
}

TOLERANCES = {
    "shell_mass": (float, 1e-9, lambda v, _: v >= 0),
    # the shell series is cut at tail_tol relative to its sum, so a
    # tail_tol of 0 never ends it
    "tail_tol": (float, 1e-12, lambda v, _: v > 0),
}

SECTIONS = {
    "charfun": {
        "beta": (float, 1.0, lambda v, _: v > 0),
        "q": (float, 1.0, lambda v, _: v >= 1),
        "m_lo": (int, None, _in_shell_bounds),
        "m_hi": (int, None, _in_shell_bounds),
    },
    "sample": {
        "kind": (str, ..., lambda v, cfg: v in (
            "gaussian1d", "wiener_tree", "wiener_mahler") and (
                v != "wiener_mahler" or _series_ball_ok(cfg.ball()))),
        "count": (int, 16, lambda v, _: 1 <= v <= MAX_SAMPLE_COUNT),
        "q": (float, 1.0, lambda v, _: v >= 1),
        "beta": (float, 1.0, lambda v, _: v > 0),
        "gamma": (PAdicValue, 0, None),
    },
    "solve": {
        "problem": (str, ..., lambda v, _: v in (
            "zero", "pure_drift", "pure_noise", "linear_drift", "linear",
            "steep", "polynomial", "locally_constant")),
        "x0": (PAdicValue, 1, None),
        "alpha": (PAdicValue, lambda cfg, sec: 1 if sec["problem"] ==
                  "linear_drift" else cfg.prime, None),
        "beta": (PAdicValue, lambda cfg, sec: cfg.prime, None),
        "coeffs": (list, lambda cfg, sec: [1, 0, cfg.prime], None),
        "samples": (int, 1, lambda v, _: 1 <= v <= MAX_SOLVE_SAMPLES),
        "sampler_q": (float, 2.0, lambda v, _: v >= 1),
    },
    "evolve": {
        "dim": (int, 3, lambda v, _: 1 <= v <= 8),
        "scale_exp": (int, lambda cfg, _: max(3, _exp_scale_floor(cfg)),
                      lambda v, cfg: _exp_scale_floor(cfg) <= v
                      <= MAX_SCALE_EXP),
        "perturb_exp": (int, 4, lambda v, _: 1 <= v <= MAX_PERTURB_EXP),
        "triples": (int, 50, lambda v, _: 1 <= v <= MAX_TRIPLES),
    },
    "verify": {
        "trials": (int, 200, lambda v, _: 1 <= v <= MAX_TRIALS),
        "char_samples": (int, 20000,
                         lambda v, _: 100 <= v <= MAX_CHAR_SAMPLES),
        "points": (int, 3, lambda v, _: 1 <= v <= MAX_POINTS),
    },
}


class RunConfig:
    """Validated run configuration; fully determines every output byte.
    ``section`` holds the checked values of the subcommand's section."""

    def __init__(self, raw: dict, command: str):
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        self.raw = raw
        self.command = command
        # sets prime, precision, radius_exp, depth, seed and out
        vars(self).update(self._walk(TOP, {
            k: v for k, v in raw.items()
            if k != "tolerances" and k not in SECTIONS}, "config"))
        if self.radius_exp + self.depth > self.precision:
            raise ConfigError("config.depth: config.radius_exp + depth "
                              "exceeds the working precision")
        if command == "evolve" and self.depth < 2:
            # generator_recovery reads the radial steps k = 0 and 1 < depth
            raise ConfigError(f"config.depth: value {self.depth} out of "
                              f"range: evolve needs depth >= 2")
        # ahead of the sections, whose values are built at the precision
        levels, sample = self.radius_exp + self.depth, raw.get("sample")
        gridless = command == "charfun" or command == "sample" and isinstance(
            sample, dict) and sample.get("kind") == "gaussian1d"
        if not gridless and (levels >= MAX_GRID_POINTS.bit_length()
                             or self.prime ** levels > MAX_GRID_POINTS):
            raise ConfigError(f"config.depth: value {self.depth} out of "
                              f"range: the grid has {self.prime}**{levels} "
                              f"points, above MAX_GRID_POINTS = "
                              f"{MAX_GRID_POINTS}")
        if self.precision > MAX_PRECISION:
            raise ConfigError(f"config.precision: value {self.precision} "
                              f"out of range")
        tol = raw.get("tolerances", {})
        # echoed as written, so an integer tolerance stays an integer
        self.tolerances = {**self._walk(TOLERANCES, tol,
                                        "config.tolerances"), **tol}
        sections = {name: self._walk(table, raw.get(name, {}),
                                     f"config.{name}")
                    for name, table in SECTIONS.items()
                    if name in raw or name == command}
        self.section = sections[command]

    def _walk(self, table: dict, sec, path: str) -> dict:
        """The checked value of every key of ``table`` in ``sec``."""
        if not isinstance(sec, dict):
            raise ConfigError(f"{path}: expected object")
        out: dict = {}
        for key, (kind, default, check) in table.items():
            val, where = sec.get(key), f"{path}.{key}"
            if val is None and default is None:  # optional: null is absent
                out[key] = None
                continue
            if key not in sec:
                if default is ...:
                    raise ConfigError(f"{where}: required key missing")
                val = default(self, out) if callable(default) else default
            val = self._convert(kind, val, where)
            try:
                ok = check is None or check(val, self)
            except ValueError as exc:   # a check that cannot decide
                raise ConfigError(f"{where}: value {val!r}: {exc}")
            if not ok:
                raise ConfigError(f"{where}: value {val!r} out of range")
            out[key] = val
        for key in sec:
            if key not in table:
                raise ConfigError(f"{path}.{key}: unknown key")
        return out

    def _convert(self, kind, val, where: str):
        if kind is PAdicValue:
            return self.value(val, where)
        if kind is float and type(val) is int:
            val = float(val) if abs(val) <= sys.float_info.max else math.inf
        if isinstance(val, bool) or not isinstance(val, kind):
            raise ConfigError(f"{where}: expected {kind.__name__}, "
                              f"got {type(val).__name__}")
        if kind is list:
            return tuple(self.value(c, where) for c in val)
        if kind is float and not math.isfinite(val):
            raise ConfigError(f"{where}: value {val!r} is not finite")
        return val

    def ball(self) -> BallSpec:
        center = PAdicValue.zero(self.prime, self.precision)
        return BallSpec(center, self.radius_exp)

    def value(self, text_or_int, path: str) -> PAdicValue:
        if isinstance(text_or_int, int) and not isinstance(text_or_int, bool):
            return PAdicValue.from_int(text_or_int, self.prime,
                                       self.precision)
        if isinstance(text_or_int, str):
            try:
                value = PAdicValue.parse(text_or_int, self.precision)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            if value.p != self.prime:
                raise ConfigError(f"{path}: prime {value.p} does not match "
                                  f"config.prime {self.prime}")
            return value
        raise ConfigError(f"{path}: expected integer or QP(...) string")


# -- artifact helpers -------------------------------------------------------------


# rows encoded and written per chunk: bounds a file's text in memory
_CHUNK_ROWS = 2048

# CSV cell formats by cell type.  Every str cell is a QP text, which always
# holds a comma and never a quote or line break, so it is always quoted;
# numbers never need quoting.  These are the bytes that
# csv.writer(quoting=QUOTE_MINIMAL, lineterminator="\n") writes.
_CELL_FORMATS = {str: '"{}"', int: "{}", float: "{!r}"}


def _csv_chunks(header, rows):
    """Yield the CSV text of ``header`` and ``rows`` in chunks of at most
    ``_CHUNK_ROWS`` rows, formatting every row with one template built
    from the cell types of the first row."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    row_format = (",".join(_CELL_FORMATS[type(cell)] for cell in first)
                  + "\n").format
    rows = chain((first,), rows)
    while chunk := "".join(starmap(row_format, islice(rows, _CHUNK_ROWS))):
        yield chunk


class Artifacts:
    """Collects run outputs; the manifest is always written last.

    The output directory is created by the first write, so a run rejected
    before it writes anything leaves no directory behind.  Each artifact's
    digest is taken from its bytes as they are written; no file is read
    back.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def _write(self, name: str, chunks) -> tuple[Path, str]:
        """Write the text ``chunks`` to ``name`` as UTF-8, each chunk once,
        and return the path and the sha256 of the bytes written.  If a
        chunk raises, the partial file is removed and the error re-raised,
        so only complete artifacts stay on disk."""
        target = self.path(name)
        sha = hashlib.sha256()
        try:
            with open(target, "wb") as fh:
                for chunk in chunks:
                    data = chunk.encode("utf-8")
                    sha.update(data)
                    fh.write(data)
        except BaseException:
            target.unlink(missing_ok=True)
            raise
        return target, f"sha256:{sha.hexdigest()}"

    def write_csv(self, name: str, header, rows) -> Path:
        """Write ``rows`` (any iterable; read once, in chunks) under
        ``header``: QP cells quoted, numbers bare, "\\n" line ends."""
        target, self.digests[name] = self._write(name,
                                                 _csv_chunks(header, rows))
        return target

    def write_json(self, name: str, payload) -> Path:
        target, self.digests[name] = self._write(name, [_json_text(payload)])
        return target

    def finish(self, config: RunConfig, status: str, checks) -> Path:
        manifest = {
            "command": config.command,
            "config": config.raw,
            "seed": config.seed,
            "tolerances": config.tolerances,
            "artifacts": self.digests,
            "checks": checks,
            "status": status,
        }
        target, _ = self._write("manifest.json", [_json_text(manifest)])
        return target


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# -- builtin problem registry -------------------------------------------------------


def build_problem(cfg: RunConfig) -> tuple[SDEProblem, dict]:
    """Instantiate a builtin coefficient problem from the solve section."""
    p, n = cfg.prime, cfg.precision
    sec = cfg.section
    name, x0 = sec["problem"], sec["x0"]
    zero = zero_program(p, n)
    one = constant_program(PAdicValue.one(p, n))
    if name == "zero":
        drift, diffusion = zero, zero
    elif name == "pure_drift":
        drift, diffusion = one, zero
    elif name == "pure_noise":
        drift, diffusion = zero, one
    elif name == "linear_drift":
        drift, diffusion = linear_state_program(sec["alpha"]), zero
    elif name == "linear":
        drift = linear_state_program(sec["alpha"])
        diffusion = linear_state_program(sec["beta"])
    elif name == "steep":
        kappa = PAdicValue.from_rational(1, p, p, n)
        drift, diffusion = linear_state_program(kappa), zero
    elif name == "polynomial":
        drift = polynomial_program(sec["coeffs"])
        diffusion = zero
    else:  # locally_constant
        ball = cfg.ball()
        table = tuple(PAdicValue.from_int(1 + d, p, n) for d in range(p))
        drift = locally_constant_program(ball, table)
        diffusion = zero
    problem = SDEProblem(ball=cfg.ball(), depth=cfg.depth, x0=x0,
                         drift=drift, diffusion=diffusion)
    meta = {"problem": name, "x0": x0.qp_str()}
    return problem, meta


def _check_path_q(cfg: RunConfig, kind: str, q: float, key: str):
    """Build the laws of ``wiener_path(kind, cfg.ball(), cfg.depth, q)``
    before anything is drawn or written, so a q whose spreads underflow
    to zero or leave the shell range exits 2 at its key."""
    try:
        path_laws(kind, cfg.ball(), cfg.depth, q)
    except ValueError as exc:
        raise ConfigError(f"{key}: value {q!r}: {exc}")


# -- subcommand implementations -------------------------------------------------------


def run_charfun(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    beta, q, m_lo, m_hi = sec["beta"], sec["q"], sec["m_lo"], sec["m_hi"]
    tail_tol = cfg.tolerances["tail_tol"]
    spec = GaussianSpec(cfg.prime, cfg.precision, beta, q)
    try:
        table = shell_distribution(spec, m_lo, m_hi, tail_tol=tail_tol)
    except ValueError as exc:   # m_lo/m_hi are in bounds: beta is extreme
        raise ConfigError(f"config.charfun.beta: value {beta!r}: {exc}")
    if not table.weights:
        raise ConfigError(f"config.charfun.m_lo: value {table.m_lo} is above "
                          f"m_hi {table.m_hi}")
    art.write_csv("shells.csv", ["m", "prob"], table.rows())
    for m, w in table.rows():
        print(f"{m},{w!r}")
    mass = table.total_mass()
    checks = [{
        "name": "shell_mass_unity",
        "value": mass,
        "tolerance": cfg.tolerances["shell_mass"],
        "passed": abs(mass - 1.0) <= cfg.tolerances["shell_mass"],
    }, {
        "name": "shell_weights_nonnegative",
        "value": min(table.weights),
        "passed": all(w >= 0.0 for w in table.weights),
    }]
    art.write_json("charfun.json", {
        "beta": beta, "q": q, "m_lo": table.m_lo, "m_hi": table.m_hi,
        "lower_tail": table.lower_tail, "upper_tail": table.upper_tail,
        "checks": checks,
    })
    return checks


def run_sample(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    kind, count, q = sec["kind"], sec["count"], sec["q"]
    checks = []
    if kind == "gaussian1d":
        beta, gamma = sec["beta"], sec["gamma"]
        spec = GaussianSpec(cfg.prime, cfg.precision, beta, q, gamma=gamma)
        try:
            sampler = cached_sampler(spec)
        except ValueError as exc:   # beta puts the shells beyond floats
            raise ConfigError(f"config.sample.beta: value {beta!r}: {exc}")
        ens = MonteCarloEnsemble(cfg.seed, count)
        rows = ((i, sampler.draw(ens.stream(i)).qp_str())
                for i in range(count))
        art.write_csv("samples.csv", ["index", "value"], rows)
        manifest = {"seed": cfg.seed, "S": count, "sampler": kind,
                    "spec": {"beta": beta, "q": q, "gamma": gamma.qp_str()}}
    else:
        sampler = "tree" if kind == "wiener_tree" else "mahler"
        _check_path_q(cfg, sampler, q, "config.sample.q")
        ball = cfg.ball()
        for i in range(count):
            path = wiener_path(sampler, ball, cfg.depth, q,
                               seed=derive_seed(cfg.seed, i))
            rows = ((ball.point(k, cfg.depth).qp_str(), w.qp_str())
                    for k, w in enumerate(path.values))
            art.write_csv(f"path_{i:04d}.csv", ["t", "w"], rows)
            checks.append({
                "name": f"path_{i:04d}_zero_at_center",
                "passed": path.values[0].is_zero,
            })
        manifest = {"seed": cfg.seed, "S": count, "sampler": sampler,
                    "spec": {"q": q, "depth": cfg.depth,
                             "radius_exp": cfg.radius_exp}}
    art.write_json("ensemble.json", manifest)
    return checks


def run_solve(cfg: RunConfig, art: Artifacts):
    problem, meta = build_problem(cfg)
    count, q = cfg.section["samples"], cfg.section["sampler_q"]
    _check_path_q(cfg, "tree", q, "config.solve.sampler_q")
    ball, depth = problem.ball, problem.depth
    # serialized once per run; no full-grid GridFunction is cached
    t_texts = [ball.point(k, depth).qp_str()
               for k in range(ball.grid_size(depth))]
    reports = []
    checks = []
    prior = None
    for i in range(count):
        w = wiener_path("tree", ball, depth, q,
                        seed=derive_seed(cfg.seed, i))
        # a solve that read no path increment answers every later sample
        sol = solve_picard(problem, w, prior=prior)
        prior = None if sol.read_path else sol
        rows = ((t, xi.qp_str()) for t, xi in zip(t_texts, sol.values.values))
        art.write_csv(f"solution_{i:04d}.csv", ["t", "xi"], rows)
        reports.append({
            "sample": i,
            "iters": sol.iterations,
            "defect_trace": list(sol.defect_trace),
            "residual": sol.residual,
            "contraction": sol.contraction,
            "subdivisions": list(sol.subdivisions),
        })
        checks.append({"name": f"residual_zero_{i:04d}",
                       "value": sol.residual,
                       "passed": sol.residual == 0.0})
        checks.append({
            "name": f"contraction_below_one_{i:04d}",
            "value": max(sol.contraction.values(), default=0.0),
            "passed": all(c < 1.0 for c in sol.contraction.values()),
        })
        # release this sample's grids before the next path is drawn; only
        # a solution that read no path increment lives on, as the prior
        del w, sol, rows
    art.write_json("convergence.json", {"meta": meta, "solves": reports})
    return checks


def run_evolve(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    dim, scale_exp = sec["dim"], sec["scale_exp"]
    perturb_exp, triples = sec["perturb_exp"], sec["triples"]
    p, n = cfg.prime, cfg.precision
    ball = cfg.ball()

    base = tuple(tuple(Fraction((1 + (i + 2 * j) % 3) * p**scale_exp)
                       for j in range(dim)) for i in range(dim))
    pert = tuple(tuple(Fraction((1 + (2 * i + j) % 3) * p**perturb_exp)
                       for j in range(dim)) for i in range(dim))
    gen = GeneratorSpec.constant(base)
    gen_b = GeneratorSpec.constant(pert)
    u = solve_evolution(gen, ball, cfg.depth)

    size, pts = u.size, u.grid.values
    picks = [(k % size, (3 * k + 1) % size) for k in range(triples)]
    pairs = picks[:10]
    mats = [u.matrix(ti, si) for ti, si in pairs]   # exp_agreement's too
    rows = ([pts[ti].qp_str(), pts[si].qp_str(),
             *(x.qp_str() for row in mat for x in row)]
            for (ti, si), mat in zip(picks, chain(
                mats, starmap(u.matrix, picks[10:]))))
    header = ["t", "s"] + [f"u_{i}_{j}" for i in range(dim)
                           for j in range(dim)]
    art.write_csv("operator.csv", header, rows)

    semigroup_ok = all(
        u.cocycle_holds(k % size, (2 * k + 3) % size, (5 * k + 1) % size)
        for k in range(triples))

    e = ExpEvolution(base, ball, cfg.depth)
    exp_digits = n - 1
    exp_ok = all(x.agrees_abs(y, exp_digits)
                 for (ti, si), mat in zip(pairs, mats)
                 for ru, re in zip(mat, e.matrix(ti, si))
                 for x, y in zip(ru, re))

    rep = perturbation_check(gen, gen_b, ball, cfg.depth, pairs)
    gmat = generating_operator(u, 0)
    gen_ok = all(
        gmat[i][j].agrees_abs(PAdicValue.from_fraction(base[i][j], p, n),
                              n - scale_exp - 2)
        for i in range(dim) for j in range(dim))
    identity_ok = u.identity_holds()    # reads every inverse computed above

    checks = [
        {"name": "identity_at_equal_times", "passed": identity_ok},
        {"name": "semigroup_bit_exact", "passed": semigroup_ok},
        {"name": "exp_agreement", "digits": exp_digits, "passed": exp_ok},
        {"name": "perturbation_identity_zero",
         "value": rep.identity_residual,
         "passed": rep.identity_residual == 0.0},
        {"name": "perturbation_bound", "value": rep.gap_norm,
         "bound": rep.bound, "passed": rep.bound_holds},
        {"name": "generator_recovery", "passed": gen_ok},
    ]
    art.write_json("evolve.json", {
        "dim": dim, "scale_exp": scale_exp, "perturb_exp": perturb_exp,
        "semigroup_residuals": 0.0 if semigroup_ok else 1.0,
        "perturbation": {
            "gap": rep.gap_norm, "bound": rep.bound,
            "identity_residual": rep.identity_residual,
            "uniform_bound": rep.uniform_bound,
            "hypothesis_met": rep.hypothesis_met,
        },
        "checks": checks,
    })
    return checks


def run_verify(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    trials, char_samples = sec["trials"], sec["char_samples"]
    points = sec["points"]
    p, n = cfg.prime, cfg.precision
    ball = cfg.ball()
    depth = cfg.depth
    rng = random.Random(cfg.seed)
    randrange = rng.randrange
    size, mod = ball.grid_size(depth), p**n
    coord = GridFunction.coordinate(ball, depth)
    zero = PAdicValue.zero(p, n)

    def random_grid(read):
        """Random values at the indices ``read`` (ascending), zero elsewhere."""
        vals = [zero] * size
        for i in read:
            m = randrange(1, mod)
            while m % p == 0:
                m = randrange(1, mod)
            vals[i] = PAdicValue(p, n, randrange(0, 3), m)
        return GridFunction(ball, depth, tuple(vals))

    # a by-parts residual at k reads x and y only at 0, k and the ends of
    # k's chain steps, so a trial draws its index first and those values next
    worst = 0.0
    for _ in range(trials):
        k = randrange(size)
        read = {0, k}
        for _level, j, jn, _step in coord.chain_steps(k):
            read.update((j, jn))
        read = sorted(read)
        x = random_grid(read)
        y = random_grid(read)
        worst = max(worst, by_parts_residual(x, y, k).norm())
    identities = [{"identity": "integration_by_parts", "trials": trials,
                   "max_residual": worst}]

    w = wiener_path("tree", ball, depth, 1.0, seed=cfg.seed)
    worst_sq = max(square_decomposition_residual(w, k).norm()
                   for k in range(size))
    identities.append({"identity": "square_decomposition",
                       "trials": size,
                       "max_residual": worst_sq})

    # C(t, w)(t) = w(t) at the grid point t = 1, index p**radius_exp
    one = p ** cfg.radius_exp
    cov = covariation(coord, w, one)
    cov_res = (cov - w.values[one]).norm()
    identities.append({"identity": "time_path_covariation_at_one",
                       "trials": 1, "max_residual": cov_res})

    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, n))
    char_reports = []
    for i in range(points):
        t_index = randrange(1, size)
        rep = character_product_check(
            psi, PAdicValue.one(p, n), PAdicValue.one(p, n), t_index,
            samples=char_samples, seed=derive_seed(cfg.seed, i))
        char_reports.append({
            "t_index": rep.t_index,
            "empirical": _complex_pair(rep.empirical),
            "analytic": _complex_pair(rep.analytic),
            "tolerance": rep.tolerance,
            "stderr": rep.stderr,
            "passed": rep.passed,
        })

    checks = [{"name": row["identity"], "value": row["max_residual"],
               "passed": row["max_residual"] == 0.0}
              for row in identities]
    checks += [{"name": f"character_product_{r['t_index']}",
                "passed": r["passed"]} for r in char_reports]
    art.write_json("verify.json", {"identities": identities,
                                   "character_products": char_reports,
                                   "checks": checks})
    return checks


# in the order argparse lists them
RUNNERS = {
    "sample": run_sample,
    "solve": run_solve,
    "evolve": run_evolve,
    "verify": run_verify,
    "charfun": run_charfun,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicsde",
        description="p-adic stochastic antiderivational equation toolkit")
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2

    try:
        cfg = RunConfig(raw, args.command)
        if args.seed is not None:
            cfg.seed = _seed_override("--seed", args.seed)
        elif "PADICSDE_SEED" in os.environ:
            try:
                seed = int(os.environ["PADICSDE_SEED"])
            except ValueError:
                raise ConfigError("PADICSDE_SEED: expected an integer")
            cfg.seed = _seed_override("PADICSDE_SEED", seed)
        if args.out is not None:
            cfg.out = args.out
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    art = Artifacts(Path(cfg.out))
    try:
        checks = RUNNERS[args.command](cfg, art)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # partial outputs always get a manifest
        art.finish(cfg, "error",
                   [{"name": "exception", "error": str(exc),
                     "passed": False}])
        print(f"error: {exc}", file=sys.stderr)
        return 1

    status = "pass" if all(c.get("passed", True) for c in checks) else "fail"
    manifest_path = art.finish(cfg, status, checks)
    if status == "fail":
        failing = [c["name"] for c in checks if not c.get("passed", True)]
        print(f"FAIL {manifest_path} ({', '.join(failing)})",
              file=sys.stderr)
        return 1
    print(f"ok {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
