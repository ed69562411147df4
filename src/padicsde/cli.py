"""Configuration-driven experiment runner.

Usage: ``padicsde <subcommand> --config FILE [--seed S] [--out DIR]`` with
subcommands ``sample``, ``solve``, ``evolve``, ``verify`` and ``charfun``.
The config is a JSON document validated against the schema below before any
computation runs; the seed may be overridden by ``--seed`` or the
``PADICSDE_SEED`` environment variable (seed only; nothing else is read
from the environment).  Every run writes its artifacts plus a
``manifest.json`` echoing the config, the tolerances, a SHA-256 content
hash per artifact and the overall status; a run repeated with the same
config and seed produces byte-identical artifacts.

Exit codes: 0 when all asserted checks pass, 1 on an assertion failure
(the failing report path is printed), 2 on a schema violation (the message
carries the config line for parse errors and the key path otherwise).

Schema (keys under the top level):
    prime      int >= 2, prime            precision  int >= 2
    radius_exp int (default 0)            depth      int >= 1
    seed       int >= 0                   out        string (default "run")
    tolerances object (optional overrides, echoed into the manifest)
    sample | solve | evolve | verify | charfun: per-subcommand tables,
    see the builders below for their keys.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .antider import GridFunction, by_parts_residual, covariation, \
    square_decomposition_residual
from .charexpect import character_product_check
from .charfun import GaussianSpec, shell_distribution
from .evolution import (
    ExpEvolution,
    GeneratorSpec,
    generating_operator,
    perturbation_check,
    solve_evolution,
)
from .measure import MonteCarloEnsemble, derive_seed, sample_gaussian, \
    wiener_path
from .padic import BallSpec, PAdicValue, _is_prime
from .sde import (
    SDEProblem,
    constant_program,
    linear_state_program,
    locally_constant_program,
    polynomial_program,
    solve_picard,
    zero_program,
)

SUBCOMMANDS = ("sample", "solve", "evolve", "verify", "charfun")

DEFAULT_TOLERANCES = {
    "shell_mass": 1e-9,
    "tail_tol": 1e-12,
}


class ConfigError(Exception):
    pass


def _need(cfg: dict, path: str, key: str, kind, check=None, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required key missing")
    val = cfg[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, "
                          f"got {type(val).__name__}")
    if check is not None and not check(val):
        raise ConfigError(f"{path}.{key}: value {val!r} out of range")
    return val


def _seed_override(source: str, seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"{source}: value {seed} out of range")
    return seed


class RunConfig:
    """Validated run configuration; fully determines every output byte."""

    def __init__(self, raw: dict, command: str):
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        self.raw = raw
        self.command = command
        self.prime = _need(raw, "config", "prime", int, _is_prime)
        self.precision = _need(raw, "config", "precision", int,
                               lambda v: v >= 2)
        self.radius_exp = _need(raw, "config", "radius_exp", int,
                                lambda v: v >= 0, default=0)
        self.depth = _need(raw, "config", "depth", int, lambda v: v >= 1)
        if self.radius_exp + self.depth > self.precision:
            raise ConfigError("config.depth: radius_exp + depth exceeds "
                              "the working precision")
        self.seed = _need(raw, "config", "seed", int, lambda v: v >= 0,
                          default=0)
        self.out = _need(raw, "config", "out", str, default="run")
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("config.tolerances: expected object")
        for key in tol:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"config.tolerances.{key}: unknown key")
            _need(tol, "config.tolerances", key, float, lambda v: v >= 0)
        self.tolerances = {**DEFAULT_TOLERANCES, **tol}
        self.section = raw.get(command, {})
        if not isinstance(self.section, dict):
            raise ConfigError(f"config.{command}: expected object")

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


class Artifacts:
    """Collects run outputs; the manifest is always written last.

    The output directory is created by the first write, so a run rejected
    before it writes anything leaves no directory behind.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write_csv(self, name: str, header, rows) -> Path:
        target = self.path(name)
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL,
                                lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self.names.append(name)
        return target

    def write_json(self, name: str, payload) -> Path:
        target = self.path(name)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        self.names.append(name)
        return target

    def finish(self, config: RunConfig, status: str, checks) -> Path:
        hashes = {}
        for name in sorted(self.names):
            digest = hashlib.sha256(self.path(name).read_bytes()).hexdigest()
            hashes[name] = f"sha256:{digest}"
        manifest = {
            "command": config.command,
            "config": config.raw,
            "seed": config.seed,
            "tolerances": config.tolerances,
            "artifacts": hashes,
            "checks": checks,
            "status": status,
        }
        target = self.path("manifest.json")
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return target


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# -- builtin problem registry -------------------------------------------------------


def build_problem(cfg: RunConfig) -> tuple[SDEProblem, dict]:
    """Instantiate a builtin coefficient problem from the solve section."""
    p, n = cfg.prime, cfg.precision
    sec = cfg.section
    name = _need(sec, "config.solve", "problem", str,
                 lambda v: v in ("zero", "pure_drift", "pure_noise",
                                 "linear_drift", "linear", "steep",
                                 "polynomial", "locally_constant"))
    x0 = cfg.value(sec.get("x0", 1), "config.solve.x0")
    zero = zero_program(p, n)
    one = constant_program(PAdicValue.one(p, n))
    if name == "zero":
        drift, diffusion = zero, zero
    elif name == "pure_drift":
        drift, diffusion = one, zero
    elif name == "pure_noise":
        drift, diffusion = zero, one
    elif name == "linear_drift":
        alpha = cfg.value(sec.get("alpha", 1), "config.solve.alpha")
        drift, diffusion = linear_state_program(alpha), zero
    elif name == "linear":
        alpha = cfg.value(sec.get("alpha", p), "config.solve.alpha")
        beta = cfg.value(sec.get("beta", p), "config.solve.beta")
        drift = linear_state_program(alpha)
        diffusion = linear_state_program(beta)
    elif name == "steep":
        kappa = PAdicValue.from_rational(1, p, p, n)
        drift, diffusion = linear_state_program(kappa), zero
    elif name == "polynomial":
        coeffs = tuple(cfg.value(c, "config.solve.coeffs")
                       for c in _need(sec, "config.solve", "coeffs", list,
                                      default=[1, 0, p]))
        drift = polynomial_program(coeffs, lipschitz=1.0)
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


# -- subcommand implementations -------------------------------------------------------


def run_charfun(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    beta = _need(sec, "config.charfun", "beta", float, lambda v: v > 0,
                 default=1.0)
    q = _need(sec, "config.charfun", "q", float, lambda v: v >= 1,
              default=1.0)
    m_lo, m_hi = (_need(sec, "config.charfun", key, int)
                  if sec.get(key) is not None else None
                  for key in ("m_lo", "m_hi"))
    spec = GaussianSpec.one_dimensional(cfg.prime, cfg.precision, beta, q)
    table = shell_distribution(spec, m_lo, m_hi,
                               tail_tol=cfg.tolerances["tail_tol"])
    if not table.weights:
        raise ConfigError(f"config.charfun.m_lo: value {table.m_lo} is above "
                          f"m_hi {table.m_hi}")
    rows = [(m, repr(w)) for m, w in table.rows()]
    art.write_csv("shells.csv", ["m", "prob"], rows)
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
    kind = _need(sec, "config.sample", "kind", str,
                 lambda v: v in ("gaussian1d", "wiener_tree",
                                 "wiener_mahler"))
    count = _need(sec, "config.sample", "count", int, lambda v: v >= 1,
                  default=16)
    q = _need(sec, "config.sample", "q", float, lambda v: v >= 1,
              default=1.0)
    checks = []
    if kind == "gaussian1d":
        beta = _need(sec, "config.sample", "beta", float, lambda v: v > 0,
                     default=1.0)
        gamma = cfg.value(sec.get("gamma", 0), "config.sample.gamma")
        spec = GaussianSpec.one_dimensional(cfg.prime, cfg.precision, beta,
                                            q, gamma=gamma)
        ens = MonteCarloEnsemble(cfg.seed, count)
        rows = [(i, sample_gaussian(spec, ens.stream(i)).qp_str())
                for i in range(count)]
        art.write_csv("samples.csv", ["index", "value"], rows)
        manifest = {"seed": cfg.seed, "S": count, "sampler": kind,
                    "spec": {"beta": beta, "q": q, "gamma": gamma.qp_str()}}
    else:
        sampler = "tree" if kind == "wiener_tree" else "mahler"
        ball = cfg.ball()
        for i in range(count):
            path = wiener_path(sampler, ball, cfg.depth, q,
                               seed=derive_seed(cfg.seed, i))
            rows = [(path.values.point(k).qp_str(),
                     path.at_index(k).qp_str())
                    for k in range(path.values.size)]
            art.write_csv(f"path_{i:04d}.csv", ["t", "w"], rows)
            checks.append({
                "name": f"path_{i:04d}_zero_at_center",
                "passed": path.at_index(0).is_zero,
            })
        manifest = {"seed": cfg.seed, "S": count, "sampler": sampler,
                    "spec": {"q": q, "depth": cfg.depth,
                             "radius_exp": cfg.radius_exp}}
    art.write_json("ensemble.json", manifest)
    return checks


def run_solve(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    problem, meta = build_problem(cfg)
    count = _need(sec, "config.solve", "samples", int, lambda v: v >= 1,
                  default=1)
    q = _need(sec, "config.solve", "sampler_q", float, lambda v: v >= 1,
              default=2.0)
    reports = []
    checks = []
    for i in range(count):
        w = wiener_path("tree", problem.ball, problem.depth, q,
                        seed=derive_seed(cfg.seed, i))
        sol = solve_picard(problem, w)
        rows = [(sol.values.point(k).qp_str(),
                 sol.values.values[k].qp_str())
                for k in range(sol.values.size)]
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
    art.write_json("convergence.json", {"meta": meta, "solves": reports})
    return checks


def run_evolve(cfg: RunConfig, art: Artifacts):
    sec = cfg.section
    dim = _need(sec, "config.evolve", "dim", int, lambda v: 1 <= v <= 8,
                default=3)
    scale_exp = _need(sec, "config.evolve", "scale_exp", int,
                      lambda v: v >= 1, default=3)
    perturb_exp = _need(sec, "config.evolve", "perturb_exp", int,
                        lambda v: v >= 1, default=4)
    triples = _need(sec, "config.evolve", "triples", int, lambda v: v >= 1,
                    default=50)
    p, n = cfg.prime, cfg.precision
    ball = cfg.ball()

    base = tuple(tuple(Fraction((1 + (i + 2 * j) % 3) * p**scale_exp)
                       for j in range(dim)) for i in range(dim))
    pert = tuple(tuple(Fraction((1 + (2 * i + j) % 3) * p**perturb_exp)
                       for j in range(dim)) for i in range(dim))
    gen = GeneratorSpec.constant(base, p=p)
    gen_b = GeneratorSpec.constant(pert, p=p)
    u = solve_evolution(gen, ball, cfg.depth)

    rows = []
    size = u.size
    picks = [(k % size, (3 * k + 1) % size) for k in range(triples)]
    for ti, si in picks:
        mat = u.matrix(ti, si)
        flat = [mat[i][j].qp_str() for i in range(dim) for j in range(dim)]
        rows.append([ball.point(ti, cfg.depth).qp_str(),
                     ball.point(si, cfg.depth).qp_str(), *flat])
    header = ["t", "s"] + [f"u_{i}_{j}" for i in range(dim)
                           for j in range(dim)]
    art.write_csv("operator.csv", header, rows)

    from .evolution import mat_mul
    semigroup_ok = True
    for k in range(triples):
        ti, si, vi = (k % size, (2 * k + 3) % size, (5 * k + 1) % size)
        if mat_mul(u.exact(ti, si), u.exact(si, vi)) != u.exact(ti, vi):
            semigroup_ok = False
    identity_ok = all(
        all(u.exact(k, k)[i][j] == (1 if i == j else 0)
            for i in range(dim) for j in range(dim))
        for k in range(size))

    e = ExpEvolution(base, ball, cfg.depth)
    exp_digits = n - 1
    exp_ok = True
    for ti, si in picks[: min(10, len(picks))]:
        mu, me = u.matrix(ti, si), e.matrix(ti, si)
        for ru, re in zip(mu, me):
            for x, y in zip(ru, re):
                if not x.agrees_abs(y, exp_digits):
                    exp_ok = False

    pairs = picks[: min(10, len(picks))]
    rep = perturbation_check(gen, gen_b, ball, cfg.depth, pairs)
    gmat = generating_operator(u, 0, start_depth=0)
    gen_ok = all(
        gmat[i][j].agrees_abs(PAdicValue.from_fraction(base[i][j], p, n),
                              n - scale_exp - 2)
        for i in range(dim) for j in range(dim))

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
    trials = _need(sec, "config.verify", "trials", int, lambda v: v >= 1,
                   default=200)
    char_samples = _need(sec, "config.verify", "char_samples", int,
                         lambda v: v >= 100, default=20000)
    points = _need(sec, "config.verify", "points", int, lambda v: v >= 1,
                   default=3)
    p, n = cfg.prime, cfg.precision
    ball = cfg.ball()
    depth = cfg.depth
    import random
    rng = random.Random(cfg.seed)

    def random_grid():
        vals = []
        for _ in range(ball.grid_size(depth)):
            m = rng.randrange(1, p**n)
            while m % p == 0:
                m = rng.randrange(1, p**n)
            vals.append(PAdicValue(p, n, rng.randrange(0, 3), m))
        return GridFunction(ball, depth, tuple(vals))

    worst = 0.0
    for _ in range(trials):
        x = random_grid()
        y = random_grid()
        k = rng.randrange(ball.grid_size(depth))
        worst = max(worst, by_parts_residual(x, y, k).norm())
    identities = [{"identity": "integration_by_parts", "trials": trials,
                   "max_residual": worst}]

    w = wiener_path("tree", ball, depth, 1.0, seed=cfg.seed)
    worst_sq = max(square_decomposition_residual(w, k).norm()
                   for k in range(ball.grid_size(depth)))
    identities.append({"identity": "square_decomposition",
                       "trials": ball.grid_size(depth),
                       "max_residual": worst_sq})

    idf = GridFunction.coordinate(ball, depth)
    cov = covariation(idf, w, 1)
    cov_res = (cov - w.at_index(1)).norm()
    identities.append({"identity": "time_path_covariation_at_one",
                       "trials": 1, "max_residual": cov_res})

    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, n))
    char_reports = []
    for i in range(points):
        t_index = rng.randrange(1, ball.grid_size(depth))
        rep = character_product_check(
            psi, PAdicValue.one(p, n), PAdicValue.one(p, n), t_index,
            samples=char_samples, seed=derive_seed(cfg.seed, i))
        char_reports.append({
            "t_index": rep.t_index,
            "empirical": _complex_pair(rep.empirical),
            "analytic": _complex_pair(rep.analytic),
            "tolerance": rep.tolerance,
            "stderr": rep.stderr,
            "asserted": rep.asserted,
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


RUNNERS = {
    "charfun": run_charfun,
    "sample": run_sample,
    "solve": run_solve,
    "evolve": run_evolve,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicsde",
        description="p-adic stochastic antiderivational equation toolkit")
    parser.add_argument("command", choices=SUBCOMMANDS)
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
