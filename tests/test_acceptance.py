"""Acceptance suite: one test per criterion, each printing a pass line
with its measured runtime.  Tolerances are pinned here, not configurable."""

import json
import math
import random
import time

import pytest

from padicsde.antider import (
    GridFunction,
    by_parts_residual,
    covariation,
    square_decomposition_residual,
)
from padicsde.charexpect import character_product_check
from padicsde.charfun import GaussianSpec, shell_distribution
from padicsde.cli import main
from padicsde.evolution import (
    ExpEvolution,
    GeneratorSpec,
    generating_operator,
    mat_mul,
    perturbation_check,
    solve_evolution,
)
from padicsde.measure import derive_seed, empirical_char, norm_histogram, \
    wiener_path
from padicsde.padic import BallSpec, PAdicValue
from padicsde.sde import (
    FamilyTerm,
    SDEProblem,
    constant_program,
    ensemble_paths,
    linear_state_program,
    moment_diagnostic,
    picard_as_family,
    solve_picard,
    stability_diagnostic,
    zero_program,
)
from padicsde.measure import MonteCarloEnsemble

N = 6
PARAM_GRID = [(p, b, q) for p in (2, 3, 5) for b in (0.1, 1.0, 10.0)
              for q in (1, 2)]


def _report(num, label, t0):
    print(f"PASS criterion {num}: {label} ({time.time() - t0:.1f}s)")


def _random_grid(p, depth, rng):
    ball = BallSpec.unit(p, N)
    vals = []
    for _ in range(ball.grid_size(depth)):
        m = rng.randrange(1, p**N)
        while m % p == 0:
            m = rng.randrange(1, p**N)
        vals.append(PAdicValue(p, N, rng.randrange(0, 3), m))
    return GridFunction(ball, depth, tuple(vals))


def test_criterion_1_exact_identity_suite():
    # grid depth 4: the telescoping identities are depth-independent and the
    # residuals are exact at any depth; the working precision stays N = 6
    t0 = time.time()
    rng = random.Random(1)
    pairs_per_prime = {2: 334, 3: 333, 5: 333}
    for p, pairs in pairs_per_prime.items():
        depth = 4
        for _ in range(pairs):
            x = _random_grid(p, depth, rng)
            y = _random_grid(p, depth, rng)
            k = rng.randrange(x.size)
            res = by_parts_residual(x, y, k)
            assert res.is_zero, (p, k)
        w = wiener_path("tree", BallSpec.unit(p, N), N, 1.0, seed=p)
        for k in range(0, w.size, max(1, w.size // 64)):
            assert square_decomposition_residual(w, k).is_zero
        idf = GridFunction.coordinate(BallSpec.unit(p, N), N)
        assert covariation(idf, w, 1) == w.values[1]
    assert time.time() - t0 < 10.0
    _report(1, "integration by parts, square decomposition and "
               "time-path covariation residuals all exactly zero", t0)


def test_criterion_2_characteristic_functional():
    t0 = time.time()
    size = 100_000
    tol = 4.0 / math.sqrt(size)
    for (p, beta, q) in PARAM_GRID:
        spec = GaussianSpec(p, N, beta=beta, q=q)
        hs = [PAdicValue(p, N, v, 1) for v in (0, 1, 2, -1, -2)]
        got = empirical_char(spec, hs, size, seed=20_000 + p)
        for h in hs:
            want = math.exp(-beta * h.norm() ** q)
            assert abs(got[h].real - want) <= tol, (p, beta, q, h.v)
            assert abs(got[h].imag) <= tol
    assert time.time() - t0 < 60.0
    _report(2, f"empirical characters match exp(-beta |h|^q) within "
               f"{tol:.4f} on the 3x3x2 parameter grid, S={size}", t0)


def test_criterion_3_ultrametric_inequality():
    t0 = time.time()
    rng = random.Random(3)
    trials = 10_000
    for _ in range(trials):
        p = rng.choice((2, 3, 5))
        def rv():
            m = rng.randrange(1, p**N)
            while m % p == 0:
                m = rng.randrange(1, p**N)
            return PAdicValue(p, N, rng.randrange(-3, 4), m)
        g, h1, h2 = rv(), rv(), rv()
        s = h1 + h2
        # ultrametric law in the exponent, exact via valuations
        if not s.is_zero:
            assert s.v >= min(h1.v, h2.v)
        # modulus consequence: |mu(h1+h2)| >= min of the parts, with
        # equality of |mu(h1+h2)| and |mu(h1)| when |h1| > |h2|
        b_eff = g.norm()  # positive functional weight
        def modulus(h):
            return math.exp(-b_eff * h.norm())
        assert modulus(s) >= min(modulus(h1), modulus(h2)) - 1e-15
        if h1.v < h2.v:
            assert s.v == h1.v
    assert time.time() - t0 < 5.0
    _report(3, f"exponent-level ultrametric law exact on {trials} random "
               "triples, zero violations", t0)


def test_criterion_4_shell_distribution():
    t0 = time.time()
    size = 100_000
    for (p, beta, q) in PARAM_GRID:
        spec = GaussianSpec(p, N, beta=beta, q=q)
        table = shell_distribution(spec)
        assert all(w >= 0.0 for w in table.weights), (p, beta, q)
        assert abs(table.total_mass() - 1.0) <= 1e-9
        counts = norm_histogram(spec, size, seed=40_000 + int(10 * beta) + p)
        for m, w in table.rows():
            got = counts.get(m, 0) / size
            se = math.sqrt(max(w, 0.0) * (1.0 - min(w, 1.0)) / size)
            # rare shells (expected count < 50) get a small-count cushion on
            # top of the binomial band
            slack = 3.0 * se if w * size >= 50 else 3.0 * se + 5.0 / size
            assert abs(got - w) <= slack + 1e-12, (p, beta, q, m, got, w)
    assert time.time() - t0 < 60.0
    _report(4, "shell weights nonnegative, unit mass within 1e-9, sampled "
               f"histograms within 3 binomial SE at S={size}", t0)


def _builtin_problems(p):
    ball = BallSpec.unit(p, N)
    zero = zero_program(p, N)
    one = constant_program(PAdicValue.one(p, N))
    x0 = PAdicValue.one(p, N)
    mk = lambda drift, diff: SDEProblem(ball=ball, depth=N, x0=x0,
                                        drift=drift, diffusion=diff)
    return {
        "zero": mk(zero, zero),
        "pure_drift": mk(one, zero),
        "pure_noise": mk(zero, one),
        "linear_drift": mk(linear_state_program(PAdicValue.from_int(1, p, N)),
                           zero),
        "linear": mk(linear_state_program(PAdicValue.from_int(p, p, N)),
                     linear_state_program(PAdicValue.from_int(p, p, N))),
        "steep": mk(linear_state_program(
            PAdicValue.from_rational(1, p, p, N)), zero),
    }


def test_criterion_5_picard_solver():
    t0 = time.time()
    p = 5
    problems = _builtin_problems(p)
    w = wiener_path("tree", BallSpec.unit(p, N), N, 2.0, seed=55)
    assert w.size == 15625
    for name, prob in problems.items():
        sol = solve_picard(prob, w)
        assert sol.residual == 0.0, name
        assert all(c < 1.0 for c in sol.contraction.values()), name
        # perturbed start reaches the same fixed point bit-exactly
        bump = PAdicValue.from_int(2, p, N)
        start = tuple(prob.x0 + bump for _ in range(prob.ball.grid_size(N)))
        pert = solve_picard(prob, w, initial=start)
        assert pert.values.values == sol.values.values, name
    assert time.time() - t0 < 30.0
    _report(5, "fixed-point residuals exactly zero, contraction factors "
               "below one, perturbed starts bit-identical on 15625-point "
               "grids for six builtin problems", t0)


def test_criterion_6_generalized_solver():
    t0 = time.time()
    p = 5
    ball = BallSpec.unit(p, N)
    depth = 4
    x0 = PAdicValue.one(p, N)
    drift = linear_state_program(PAdicValue.from_int(2, p, N))
    diffusion = linear_state_program(PAdicValue.from_int(3, p, N))
    base = SDEProblem(ball=ball, depth=depth, x0=x0, drift=drift,
                      diffusion=diffusion)
    w = wiener_path("tree", ball, depth, 2.0, seed=66)
    picard = solve_picard(base, w)
    general = solve_picard(picard_as_family(base), w)
    assert picard.values.values == general.values.values
    one = constant_program(PAdicValue.one(p, N))
    small = constant_program(PAdicValue.from_int(p**2, p, N))
    two_term = SDEProblem(
        ball=ball, depth=depth, x0=x0, drift=drift, diffusion=diffusion,
        family=(FamilyTerm(1, 0, 0, drift),
                FamilyTerm(0, 2, 2, small, e_slot=one)))
    sol2 = solve_picard(two_term, w)
    assert sol2.residual == 0.0
    _report(6, "single-term family reductions bit-identical to the plain "
               "solver; two-term family residual exactly zero", t0)


def test_criterion_7_moment_and_stability():
    t0 = time.time()
    p = 3
    depth = 3
    ball = BallSpec.unit(p, N)
    x0 = PAdicValue.one(p, N)
    prob = SDEProblem(
        ball=ball, depth=depth, x0=x0,
        drift=linear_state_program(PAdicValue.from_int(p, p, N)),
        diffusion=linear_state_program(PAdicValue.from_int(p, p, N)))
    ens = MonteCarloEnsemble(777, 1000)
    paths = ensemble_paths("tree", ball, depth, 2.0, ens)
    rows = moment_diagnostic(prob, paths, s=1, c1=float(p**depth), c2=2.0)
    assert rows and all(r.ok for r in rows)
    rows = stability_diagnostic(prob, x0, x0, paths[:200], s=1,
                                c1=float(p**depth), c2=2.0)
    assert all(r.stat == 0.0 and r.ok for r in rows)
    x1 = PAdicValue.from_int(2, p, N)
    rows = stability_diagnostic(prob, x0, x1, paths[:200], s=1,
                                c1=float(p**depth), c2=2.0)
    assert all(r.ok for r in rows)
    _report(7, "moment and stability inequalities hold at every radius "
               "level on the builtin linear problem (S=1000); zero initial "
               "gap gives the identically zero statistic", t0)


def test_criterion_8_evolution_suite():
    t0 = time.time()
    p, depth, dim = 3, 3, 3
    ball = BallSpec.unit(p, N)
    from fractions import Fraction
    base = tuple(tuple(Fraction((1 + (i + 2 * j) % 3) * p**3)
                       for j in range(dim)) for i in range(dim))
    pert = tuple(tuple(Fraction((1 + (2 * i + j) % 3) * p**4)
                       for j in range(dim)) for i in range(dim))
    gen = GeneratorSpec.constant(base)
    u = solve_evolution(gen, ball, depth)
    for k in range(u.size):
        assert all(u.exact(k, k)[i][j] == (1 if i == j else 0)
                   for i in range(dim) for j in range(dim))
    rng = random.Random(8)
    for _ in range(100):
        ti, si, vi = (rng.randrange(u.size) for _ in range(3))
        assert mat_mul(u.exact(ti, si), u.exact(si, vi)) == u.exact(ti, vi)
    e = ExpEvolution(base, ball, depth)
    for ti, si in ((1, 0), (8, 2), (26, 0), (17, 13)):
        for ru, re in zip(u.matrix(ti, si), e.matrix(ti, si)):
            for x, y in zip(ru, re):
                assert x.agrees_abs(y, N - 1)
    rep = perturbation_check(gen, GeneratorSpec.constant(pert), ball,
                             depth, pairs=[(1, 0), (8, 2), (26, 13),
                                           (14, 5), (22, 22)])
    assert rep.identity_residual == 0.0
    assert rep.bound_holds
    gmat = generating_operator(u, 0)
    for i in range(dim):
        for j in range(dim):
            want = PAdicValue.from_fraction(base[i][j], p, N)
            assert gmat[i][j].agrees_abs(want, want.v + 1)
    assert time.time() - t0 < 30.0
    _report(8, "identity/semigroup bit-exact, EXP agreement to N-1 digits, "
               "perturbation identity residual zero with the bound held, "
               "generator recovered to a guard digit", t0)


def test_criterion_9_character_product():
    t0 = time.time()
    p, depth = 3, N
    size = 100_000
    ball = BallSpec.unit(p, N)
    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, N))
    t_indices = [1, 2, 4, 1 + 2 * 3 + 9, 3**5 + 3 + 2]
    for i, ti in enumerate(t_indices):
        rep = character_product_check(
            psi, PAdicValue.one(p, N), PAdicValue.one(p, N), ti,
            samples=size, seed=derive_seed(9000, i))
        assert rep.asserted
        assert rep.passed, (ti, rep.empirical, rep.analytic)
    assert time.time() - t0 < 60.0
    _report(9, "expected character of the stochastic antiderivative within "
               f"4/sqrt(S) of the analytic product at {len(t_indices)} "
               f"test points, S={size}", t0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    config = {
        "prime": 3, "precision": 6, "depth": 3, "seed": 10,
        "verify": {"trials": 25, "char_samples": 500, "points": 2},
        "sample": {"kind": "wiener_tree", "count": 2, "q": 1},
        "charfun": {"beta": 1.0, "q": 1},
    }
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps(config, indent=2), encoding="utf-8")
    for command in ("verify", "sample", "charfun"):
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        assert main([command, "--config", str(cfgfile),
                     "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfgfile),
                     "--out", str(out2)]) == 0
        tree1 = {f.name: f.read_bytes() for f in sorted(out1.iterdir())}
        tree2 = {f.name: f.read_bytes() for f in sorted(out2.iterdir())}
        assert tree1 == tree2, command
    _report(10, "repeated CLI runs produce byte-identical artifacts for "
                "verify, sample and charfun", t0)
