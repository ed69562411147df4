import json
import signal
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicsde import cli, evolution
from padicsde.antider import GridFunction
from padicsde.evolution import (
    EvolutionOperator,
    ExpEvolution,
    GeneratorSpec,
    _int_form,
    _int_inv,
    generating_operator,
    mat_add,
    mat_identity,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_norm,
    mat_round,
    mat_zero,
    mof_check,
    perturbation_check,
    scalar_flow,
    solve_evolution,
)
from padicsde.measure import wiener_path
from padicsde.padic import (BallSpec, PAdicValue, exp_domain_valuation,
                            padic_exp)
from padicsde.sde import SDEProblem, solve_picard

N = 6
P = 3
DEPTH = 3
D = 3


def unit_ball():
    return BallSpec.unit(P, N)


def const_generator(scale_exp: int, dim: int = D) -> GeneratorSpec:
    """Constant generator with entries of norm <= p**(-scale_exp)."""
    base = [[Fraction(0)] * dim for _ in range(dim)]
    val = Fraction(P**scale_exp)
    for i in range(dim):
        for j in range(dim):
            base[i][j] = val * (1 + ((i + 2 * j) % 3))
    return GeneratorSpec.constant(tuple(tuple(r) for r in base))


def varying_generator(dim: int = D) -> GeneratorSpec:
    def fn(t: PAdicValue):
        shift = t.as_fraction() * P
        return tuple(tuple(Fraction(P) * (1 + (i + j) % 2) + (shift if i == j else 0)
                           for j in range(dim)) for i in range(dim))
    return GeneratorSpec(dim=dim, fn=fn)


def test_identity_at_equal_times():
    u = solve_evolution(const_generator(1), unit_ball(), DEPTH)
    for k in range(u.size):
        assert u.exact(k, k) == mat_identity(D)


def test_zero_generator_gives_identity_everywhere():
    zero = GeneratorSpec(dim=D, fn=lambda t: tuple(
        tuple(Fraction(0) for _ in range(D)) for _ in range(D)))
    u = solve_evolution(zero, unit_ball(), DEPTH)
    for ti, si in ((0, 1), (5, 17), (26, 3)):
        assert u.exact(ti, si) == mat_identity(D)


def test_equation_residual_exact_zero():
    a = varying_generator()
    u = solve_evolution(a, unit_ball(), DEPTH)
    for ti, si in ((4, 0), (17, 5), (26, 13), (9, 9)):
        assert mat_is_zero(u.equation_residual(ti, si, a))


def test_dual_equation_equals_primal():
    a = varying_generator()
    u = solve_evolution(a, unit_ball(), DEPTH)
    for ti, si in ((4, 0), (22, 7), (11, 19)):
        assert mat_is_zero(u.dual_residual(ti, si, a))


def test_semigroup_bit_exact_on_triples():
    import random
    a = varying_generator()
    u = solve_evolution(a, unit_ball(), DEPTH)
    r = random.Random(5)
    for _ in range(100):
        ti, si, vi = (r.randrange(u.size) for _ in range(3))
        lhs = mat_mul(u.exact(ti, si), u.exact(si, vi))
        assert lhs == u.exact(ti, vi)


def test_exp_agreement_to_guard_digits():
    # the digit-chain flow and the exponential agree through second order;
    # with |A| <= p**-3 the gap sits below p**-(N-1)
    a = const_generator(3)
    ball = unit_ball()
    u = solve_evolution(a, ball, DEPTH)
    e = ExpEvolution(a(PAdicValue.zero(P, N)), ball, DEPTH)
    for ti, si in ((1, 0), (8, 2), (26, 0), (13, 13)):
        mu = u.matrix(ti, si)
        me = e.matrix(ti, si)
        for ru, re in zip(mu, me):
            for x, y in zip(ru, re):
                assert x.agrees_abs(y, N - 1)


def test_exp_identity_at_equal_times():
    a = const_generator(3)
    e = ExpEvolution(a(PAdicValue.zero(P, N)), unit_ball(), DEPTH)
    m = e.matrix(7, 7)
    for i in range(D):
        for j in range(D):
            want = PAdicValue.from_int(1 if i == j else 0, P, N)
            assert m[i][j] == want


def _within(seconds, fn):
    """fn() under a SIGALRM deadline, so a loop that never ends fails."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _exp_series(a, ball, depth, ti, si):
    """EXP((t - s) A) summed until a term leaves the precision, with no
    domain check; it ends only inside the convergence domain."""
    return _exp_series_at(a, ball.point(ti, depth) - ball.point(si, depth))


def _exp_series_at(a, z):
    """EXP(z A) for a Fraction matrix A, as ``_exp_series``."""
    p, n, dim = z.p, z.n, len(a)
    a_p = [[PAdicValue.from_fraction(x, p, n) for x in row] for row in a]
    one, zero = PAdicValue.one(p, n), PAdicValue.zero(p, n)
    total = [[one if i == j else zero for j in range(dim)]
             for i in range(dim)]
    term, k = total, 0
    while not z.is_zero:
        k += 1
        zk = z / PAdicValue.from_int(k, p, n)
        term = [[sum((term[i][l] * a_p[l][j] for l in range(dim)),
                     zero) * zk for j in range(dim)] for i in range(dim)]
        if all(x.is_zero or x.v > n for row in term for x in row):
            break
        total = [[x + y for x, y in zip(ra, rb)]
                 for ra, rb in zip(total, term)]
    return tuple(tuple(row) for row in total)


@pytest.mark.parametrize("p, radius_exp, a", [
    # |(t - s) A| = 3**0 and 3**-1 at p = 3, 2**-1 at p = 2 (the boundary)
    (3, 1, ((Fraction(3),),)),
    (3, 0, ((Fraction(1), Fraction(2)), (Fraction(1, 3), Fraction(3)))),
    (2, 0, ((Fraction(2),),)),
])
def test_exp_outside_domain_raises(p, radius_exp, a):
    e = ExpEvolution(a, BallSpec(PAdicValue.zero(p, 4), radius_exp), 2)
    with pytest.raises(ValueError, match="convergence domain"):
        _within(10, lambda: e.matrix(1, 0))


def test_exp_nilpotent_outside_domain_ends():
    # A**3 = 0: the series ends at the square term whatever |(t - s) A|
    a = ((Fraction(0), Fraction(1), Fraction(1, 3)),
         (Fraction(0), Fraction(0), Fraction(2)),
         (Fraction(0), Fraction(0), Fraction(0)))
    ball = BallSpec(PAdicValue.zero(3, 4), 1)
    for ti, si in ((1, 0), (5, 2), (8, 8)):
        got = _within(10, lambda: ExpEvolution(a, ball, 2).matrix(ti, si))
        assert got == _exp_series(a, ball, 2, ti, si)


@pytest.mark.parametrize("p, scale_exp", [(2, 2), (2, 3), (3, 1), (3, 2),
                                          (5, 1), (5, 3)])
def test_exp_inside_domain_unchanged(p, scale_exp):
    ball = BallSpec.unit(p, N)
    # |A| = p**-scale_exp: the (0, 0) entry has a unit numerator
    a = tuple(tuple(Fraction(p**scale_exp * (1 + i + 2 * j),
                             1 + p * (i == j))
                    for j in range(D)) for i in range(D))
    e = ExpEvolution(a, ball, DEPTH)
    for ti, si in ((1, 0), (p + 1, 2), (p**DEPTH - 1, 0)):
        assert _within(10, lambda: e.matrix(ti, si)) == \
            _exp_series(a, ball, DEPTH, ti, si)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", range(1, 9))
def test_padic_exp_is_the_one_by_one_series(p, n):
    # padic_exp and ExpEvolution share one series; the scalar is its 1 x 1
    # case, here against the reference, and outside the domain it raises
    # EXP divergence, at n = 1 too
    low, one = exp_domain_valuation(p), ((Fraction(1),),)
    for v in range(-1, n + 2):
        for unit in (1, -1, p - 1, p + 1, Fraction(1, p + 1)):
            z = PAdicValue.from_fraction(unit * Fraction(p) ** v, p, n)
            if v >= low:
                want = _within(10, lambda: _exp_series_at(one, z))[0][0]
                assert padic_exp(z) == want
            else:
                with pytest.raises(ValueError, match="EXP divergence"):
                    padic_exp(z)
    assert padic_exp(PAdicValue.zero(p, n)) == PAdicValue.one(p, n)


def test_generator_recovery_constant():
    a = const_generator(2)
    u = solve_evolution(a, unit_ball(), DEPTH)
    got = generating_operator(u, 0)
    want = a(PAdicValue.zero(P, N))
    for i in range(D):
        for j in range(D):
            assert got[i][j].agrees_abs(
                PAdicValue.from_fraction(want[i][j], P, N), N - 2)


def test_constant_generator_results_do_not_depend_on_the_center():
    # a constant generator's transfers, its exponential family and the
    # recovered generator read the points only through t - s, so moving
    # the ball's center to 1 or 6 leaves each of them unchanged
    p, depth = 5, 3
    a = GeneratorSpec.constant(tuple(
        tuple(Fraction(p * (1 + (i + 2 * j) % 3)) for j in range(D))
        for i in range(D)))
    pairs = ((1, 0), (7, 3), (124, 0), (13, 13), (0, 88), (61, 112))
    results = []
    for c in (0, 1, 6):
        ball = BallSpec(PAdicValue.from_int(c, p, N), 0)
        u = solve_evolution(a, ball, depth)
        e = ExpEvolution(a(ball.center), ball, depth)
        results.append(([u.exact(ti, si) for ti, si in pairs],
                        [e.matrix(ti, si) for ti, si in pairs],
                        generating_operator(u, 0)))
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_generator_zero():
    zero = GeneratorSpec(dim=2, fn=lambda t: tuple(
        tuple(Fraction(0) for _ in range(2)) for _ in range(2)))
    u = solve_evolution(zero, unit_ball(), DEPTH)
    got = generating_operator(u, 0)
    assert all(x.is_zero for row in got for x in row)


def test_generator_same_for_same_operator():
    a = const_generator(3)
    u = solve_evolution(a, unit_ball(), DEPTH)
    g1 = generating_operator(u, 0)
    g2 = generating_operator(u, 0)
    assert g1 == g2


def test_perturbation_zero_is_exact():
    a = varying_generator()
    zero = GeneratorSpec(dim=D, fn=lambda t: tuple(
        tuple(Fraction(0) for _ in range(D)) for _ in range(D)))
    rep = perturbation_check(a, zero, unit_ball(), DEPTH,
                             pairs=[(4, 0), (17, 5), (26, 13)])
    assert rep.gap_norm == 0.0
    assert rep.identity_residual == 0.0
    assert rep.bound_holds


def test_perturbation_bound_and_identity():
    a = const_generator(1)
    b = const_generator(2)
    pairs = [(1, 0), (4, 2), (13, 7), (26, 0), (22, 22)]
    rep = perturbation_check(a, b, unit_ball(), DEPTH, pairs)
    assert rep.identity_residual == 0.0
    assert rep.bound_holds
    assert rep.hypothesis_met
    assert rep.uniform_bound_holds


def test_perturbation_scaling_rate():
    a = const_generator(1)
    pairs = [(4, 0), (17, 5), (26, 13)]
    gaps = []
    for n_scale in (2, 3, 4):
        b = const_generator(n_scale)
        rep = perturbation_check(a, b, unit_ball(), DEPTH, pairs)
        gaps.append(rep.gap_norm)
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= float(P) ** (-4) + 1e-12


def test_scalar_flow_identity_and_cocycle():
    ball = unit_ball()
    w = wiener_path("tree", ball, DEPTH, 2.0, seed=3)
    alpha = PAdicValue.from_int(P**2, P, N)
    beta = PAdicValue.from_int(P**2, P, N)
    flow = scalar_flow(alpha, beta, w)
    assert flow[0] == 1
    assert flow[8] / flow[2] * (flow[2] / flow[5]) == flow[8] / flow[5]


def test_mof_representation_bit_exact():
    # linear equation: the Picard solution equals the multiplicative
    # functional applied to the initial value, path by path; coefficient
    # valuations keep |beta dw| < 1 on every edge of these seeded paths
    ball = unit_ball()
    paths = [wiener_path("tree", ball, DEPTH, 2.0, seed=s)
             for s in (101, 202, 303)]
    alpha = PAdicValue.from_int(P**3, P, N)
    beta = PAdicValue.from_int(2 * P**3, P, N)
    inits = tuple(PAdicValue.from_int(c, P, N) for c in (1, 2, 7))
    rep = mof_check(alpha, beta, paths, q=1.0, initial_values=inits)
    assert rep.identity_ok
    assert rep.chain_ok
    assert rep.representation_ok
    assert rep.moment_constant > 0.0


@pytest.mark.parametrize("node", [1, P**DEPTH // 2, P**DEPTH - 1])
def test_mof_chain_check_catches_corrupted_flow(monkeypatch, node):
    # doubling one flow value breaks the chain equation on the edges into
    # and out of that node, but not the rational identity
    # a/b * (b/c) == a/c that the check used to compare
    ball = unit_ball()
    paths = [wiener_path("tree", ball, DEPTH, 2.0, seed=101)]
    alpha = PAdicValue.from_int(P**3, P, N)
    beta = PAdicValue.from_int(2 * P**3, P, N)
    assert mof_check(alpha, beta, paths, q=1.0).chain_ok
    flow = list(scalar_flow(alpha, beta, paths[0]))
    flow[node] *= 2
    size = len(flow)
    for ti, si, vi in ((1, 0, min(2, size - 1)), (size - 1, size // 2, 0)):
        assert flow[ti] / flow[si] * (flow[si] / flow[vi]) == \
            flow[ti] / flow[vi]
    monkeypatch.setattr(evolution, "scalar_flow",
                        lambda *args: tuple(flow))
    rep = mof_check(alpha, beta, paths, q=1.0)
    assert rep.identity_ok
    assert not rep.chain_ok


def test_mof_representation_check_catches_a_wrong_solution(monkeypatch):
    # a Picard solve started one unit off x0 is not the functional applied
    # to x0; the flow is untouched, so only the representation check fails
    ball = unit_ball()
    paths = [wiener_path("tree", ball, DEPTH, 2.0, seed=101)]
    alpha = PAdicValue.from_int(P**3, P, N)
    beta = PAdicValue.from_int(2 * P**3, P, N)
    inits = (PAdicValue.from_int(2, P, N),)
    assert mof_check(alpha, beta, paths, q=1.0,
                     initial_values=inits).representation_ok
    solve = evolution.solve_picard
    one = PAdicValue.one(P, N)
    monkeypatch.setattr(evolution, "solve_picard", lambda prob, w: solve(
        replace(prob, x0=prob.x0 + one), w))
    rep = mof_check(alpha, beta, paths, q=1.0, initial_values=inits)
    assert rep.identity_ok and rep.chain_ok
    assert rep.representation_ok is False


def test_mof_scaling_linearity():
    ball = unit_ball()
    w = wiener_path("tree", ball, DEPTH, 2.0, seed=11)
    alpha = PAdicValue.from_int(P**2, P, N)
    beta = PAdicValue.from_int(P**2, P, N)
    flow = scalar_flow(alpha, beta, w)
    c = Fraction(3)
    x0 = Fraction(2)
    for k in range(len(flow)):
        assert flow[k] * (c * x0) == c * (flow[k] * x0)


def test_deterministic_generator_reduces_to_semigroup():
    # no noise: the functional of the deterministic linear problem is the
    # one-dimensional evolution family itself
    ball = unit_ball()
    zero_grid = GridFunction.constant(ball, DEPTH, PAdicValue.zero(P, N))
    alpha = PAdicValue.from_int(P, P, N)
    beta = PAdicValue.zero(P, N)
    flow = scalar_flow(alpha, beta, zero_grid)
    a = GeneratorSpec(dim=1, fn=lambda t: ((alpha.as_fraction(),),))
    u = solve_evolution(a, ball, DEPTH)
    for k in range(u.size):
        assert u.exact(k, 0)[0][0] == flow[k]


def test_path_derivative_linear_path_exact():
    from padicsde.evolution import path_derivative

    ball = unit_ball()
    c = PAdicValue.from_int(7, P, N)
    wlin = GridFunction.from_callable(ball, DEPTH, lambda t: c * t)
    assert path_derivative(wlin, 4) == c


def test_path_derivative_rejects_rough_path():
    from padicsde.evolution import path_derivative

    w = wiener_path("tree", unit_ball(), DEPTH, 1.0, seed=5)
    with pytest.raises(ValueError, match="path not C1"):
        path_derivative(w, 2)


@pytest.mark.parametrize("back", [1, 2])
def test_radial_limit_refuses_when_the_grid_ends_first(back):
    # ti + 1 (back 1) or ti + p (back 2) leaves the 27-point grid before
    # two depths agree, even on a linear path and a constant generator
    from padicsde.evolution import path_derivative

    ball = unit_ball()
    c = PAdicValue.from_int(7, P, N)
    wlin = GridFunction.from_callable(ball, DEPTH, lambda t: c * t)
    u = solve_evolution(const_generator(2), ball, DEPTH)
    ti = u.size - back
    with pytest.raises(ValueError, match="path not C1 at precision"):
        path_derivative(wlin, ti)
    with pytest.raises(ValueError, match="no limit at precision"):
        generating_operator(u, ti)


def test_generator_series_reads_w_prime_only_for_a_nonzero_piece(
        monkeypatch):
    # with no f_x term the series reads w' only for an order >= 2 e_t w'
    # piece: never when that piece is zero, so a rough path is accepted,
    # and once, lazily, when it is not
    from padicsde.sde import constant_program

    ball = unit_ball()

    def c(k):
        return PAdicValue.from_int(k, P, N)

    calls = []
    real = evolution.path_derivative
    monkeypatch.setattr(evolution, "path_derivative",
                        lambda w, ti: calls.append(ti) or real(w, ti))
    a, e = constant_program(c(2)), constant_program(c(5))
    xi = GridFunction.from_callable(ball, DEPTH, lambda t: c(1) + t)
    rough = wiener_path("tree", ball, DEPTH, 1.0, seed=5)
    with pytest.raises(ValueError, match="path not C1"):
        real(rough, 2)
    got = evolution.generator_series({(0, 2): lambda t, x: c(0)}, a, e,
                                     rough, xi, 2, m_max=2)
    assert got.is_zero and calls == []
    w = GridFunction.from_callable(ball, DEPTH, lambda t: c(7) * t)
    got = evolution.generator_series({(0, 2): lambda t, x: c(2)}, a, e,
                                     w, xi, 2, m_max=2)
    assert calls == [2]
    # pinned, as in test_generator_series_with_diffusion_is_pinned
    assert got.qp_str() == "QP(p=3,v=0,d=1 1 2 1 1 1)"


def test_generator_series_trivial_and_drift_cases():
    from padicsde.evolution import generator_series
    from padicsde.sde import constant_program, zero_program

    ball = unit_ball()
    zero = zero_program(P, N)
    one = PAdicValue.one(P, N)
    fid = {(0, 1): lambda t, x: one}
    wlin = GridFunction.from_callable(ball, DEPTH,
                                      lambda t: PAdicValue.from_int(2, P, N) * t)
    xi = GridFunction.constant(ball, DEPTH, PAdicValue.from_int(2, P, N))
    assert generator_series(fid, zero, zero, wlin, xi, 5, m_max=3).is_zero
    aval = PAdicValue.from_int(4, P, N)
    a = constant_program(aval)
    got = generator_series(fid, a, zero, wlin, xi, 5, m_max=3)
    assert got == aval
    # f(t, x) = t**2 + x to first order: the series is f_t + f_x a = 2 t + a
    two = PAdicValue.from_int(2, P, N)
    ft = {(1, 0): lambda t, x: two * t, (0, 1): lambda t, x: one}
    t = GridFunction.coordinate(ball, DEPTH).values[5]
    assert not t.is_zero
    got = generator_series(ft, a, zero, wlin, xi, 5, m_max=1)
    assert got == two * t + aval


def test_generator_series_square_matches_difference_quotient():
    # drift-only problem, f(t, x) = x**2: the series value agrees with the
    # radial quotient of eta = xi**2 once the coefficient norm makes the
    # second-order terms sit below the quotient's resolution
    from padicsde.evolution import generator_series, path_derivative
    from padicsde.sde import constant_program, zero_program, solve_picard

    ball = unit_ball()
    zero = zero_program(P, N)
    aval = PAdicValue.from_int(P**2, P, N)
    a = constant_program(aval)
    prob = SDEProblem(ball=ball, depth=DEPTH, x0=PAdicValue.one(P, N),
                      drift=a, diffusion=zero)
    w = wiener_path("tree", ball, DEPTH, 2.0, seed=9)
    sol = solve_picard(prob, w)
    two = PAdicValue.from_int(2, P, N)
    derivs = {
        (0, 1): lambda t, x: two * x,
        (0, 2): lambda t, x: two,
    }
    ti = 4
    formula = generator_series(derivs, a, zero, w, sol.values, ti,
                               m_max=3)
    eta = GridFunction(ball, DEPTH,
                       tuple(v * v for v in sol.values.values))
    dq = path_derivative(eta, ti)
    assert formula.agrees_abs(dq, 2 * aval.v)


@pytest.mark.parametrize("ti, digits", [
    (5, "1 2 0 1 1 0"),
    (13, "2 2 1 0 2 0"),
    (22, "2 2 0 0 0 1"),
])
def test_generator_series_with_diffusion_is_pinned(ti, digits):
    # f(t, x) = t x + x**2 with constant a = 2 and e = 5 along the C1 path
    # w = 7 t: e(t) and e_t are nonzero, so every order-2 term and the
    # e_t * w' terms run.  The values are pinned; what the paper's series
    # should equal stays open.
    from padicsde.evolution import generator_series
    from padicsde.sde import constant_program

    ball = unit_ball()

    def c(k):
        return PAdicValue.from_int(k, P, N)

    one, two = c(1), c(2)
    w = GridFunction.from_callable(ball, DEPTH, lambda t: c(7) * t)
    xi = GridFunction.from_callable(ball, DEPTH, lambda t: one + t)
    derivs = {(1, 0): lambda t, x: x, (0, 1): lambda t, x: t + two * x,
              (0, 2): lambda t, x: two, (1, 1): lambda t, x: one}
    got = generator_series(derivs, constant_program(c(2)),
                           constant_program(c(5)), w, xi, ti, m_max=3)
    assert got.qp_str() == f"QP(p=3,v=0,d={digits})"


# -- integer layer against Fraction references ------------------------------------
#
# The references below are the all-Fraction forms of mat_mul, mat_inv and
# the solve_evolution tree step; the integer layer must give equal,
# canonical Fractions.


def _ref_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def _ref_inv(a):
    d = len(a)
    work = [list(row) + list(ident_row)
            for row, ident_row in zip(a, mat_identity(d))]
    for col in range(d):
        pivot = next((r for r in range(col, d) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular operator matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(d):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[d:]) for row in work)


def _ref_transfers(a, ball, depth):
    from padicsde.antider import _tree_scan
    p, r = ball.p, ball.radius_exp
    grid = GridFunction.coordinate(ball, depth)

    def children(level, j, wj, kids):
        aw = _ref_mul(a(grid.values[j]), wj)
        unit = Fraction(p) ** (level - r)
        return [mat_add(wj, mat_scale(aw, unit * d)) for d in range(1, p)]

    return tuple(_tree_scan(p, r + depth, mat_identity(a.dim), children))


def _canonical(m):
    return all(type(x) is Fraction and x.denominator > 0
               for row in m for x in row)


# denominators with and without factors of p = 3
_fractions = st.builds(Fraction, st.integers(-12, 12),
                       st.sampled_from([1, 2, 3, 4, 7, 9, 10, 27, 63]))


@st.composite
def _square(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 5))
    return tuple(tuple(draw(_fractions) for _ in range(d)) for _ in range(d))


@st.composite
def _square_pair(draw):
    d = draw(st.integers(1, 5))
    return draw(_square(d)), draw(_square(d))


@settings(max_examples=200, deadline=None)
@given(_square_pair())
def test_mat_mul_matches_fraction_reference(pair):
    a, b = pair
    got = mat_mul(a, b)
    assert got == _ref_mul(a, b)
    assert _canonical(got)


_SWAP = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


@settings(max_examples=300, deadline=None)
@given(_square())
@example(_SWAP)                                         # det -1
@example(((Fraction(-2, 9),),))                         # 1x1, det < 0
@example(((Fraction(1, 3), Fraction(2, 7)),
          (Fraction(5, 2), Fraction(-1, 9))))           # det < 0
@example(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
def test_mat_inv_matches_fraction_reference(a):
    try:
        want = _ref_inv(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        return
    got = mat_inv(a)
    assert got == want
    assert _canonical(got)
    assert mat_mul(a, got) == mat_identity(len(a))
    # the integer form keeps a positive denominator, also for det < 0
    rows, den = _int_inv(*_int_form(a))
    assert den > 0
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == want


@settings(max_examples=100, deadline=None)
@given(_square(), st.data())
def test_mat_inv_rejects_singular_input(a, data):
    # one row is a rational multiple of another (or zero when d = 1)
    d = len(a)
    rows = [list(row) for row in a]
    src = data.draw(st.integers(0, d - 1))
    dst = data.draw(st.integers(0, d - 1))
    c = data.draw(_fractions)
    rows[dst] = ([c * x for x in rows[src]] if src != dst
                 else [Fraction(0)] * d)
    singular = tuple(tuple(row) for row in rows)
    for inv in (_ref_inv, mat_inv):
        with pytest.raises(ZeroDivisionError):
            inv(singular)


def _t_generator(c, dim=2):
    """A t-dependent generator whose entries carry the non-p denominators
    of c (and the p-power denominators of t off the unit ball)."""
    def fn(t):
        tf = t.as_fraction()
        return tuple(tuple(c[i][j] * P + (tf * P ** 3 / 7 if i == j else 0)
                           for j in range(dim)) for i in range(dim))
    return GeneratorSpec(dim=dim, fn=fn)


@pytest.mark.parametrize("radius_exp", [0, 2])
@settings(max_examples=8, deadline=None)
@given(c=_square(2))
def test_solve_evolution_matches_fraction_recursion(radius_exp, c):
    ball = BallSpec(PAdicValue.zero(P, N), radius_exp)
    a = _t_generator(c)
    u = solve_evolution(a, ball, 2)
    want = _ref_transfers(a, ball, 2)
    got = tuple(u.exact(k, 0) for k in range(u.size))
    assert got == want
    assert all(_canonical(w) for w in got)


def test_exact_identity_is_built_once():
    u = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    assert u.exact(3, 3) is u.exact(5, 5)
    assert u.exact(3, 3) == mat_identity(D)


# -- the operator's integer-form transfers against the Fraction operator ------
#
# The reference keeps every transfer and inverse as Fraction matrices:
# exact(ti, si) = W(ti) W(si)**-1 by the Fraction product and inverse.


def _scaled_generator(p, r, dim, varying):
    """Entries of norm <= p**-(r+1), so every step I + d p**(l-r) A(t) is
    invertible; the diagonal has the non-p denominator 7, and carries t
    when varying."""
    def fn(t):
        tf = t.as_fraction() * p ** (r + 1) if varying else Fraction(0)
        return tuple(tuple(Fraction(p ** (r + 1) * (1 + (i + 2 * j) % 3),
                                    1 + 6 * (i == j))
                           + (tf / 7 if i == j else 0)
                           for j in range(dim)) for i in range(dim))
    return GeneratorSpec(dim=dim, fn=fn)


@pytest.mark.parametrize("varying", [False, True], ids=["const", "t"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("radius_exp", [0, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_operator_matches_fraction_reference(p, radius_exp, dim, varying):
    depth = 3 if p == 2 else 2
    ball = BallSpec(PAdicValue.zero(p, N), radius_exp)
    a = _scaled_generator(p, radius_exp, dim, varying)
    u = solve_evolution(a, ball, depth)
    want = _ref_transfers(a, ball, depth)
    got = tuple(u.exact(k, 0) for k in range(u.size))
    assert got == want
    assert all(_canonical(w) for w in got)
    size = u.size
    # each si is asked for several ti, so later calls read the cached inverse
    # of that si; ti == si is among them
    sis = (0, 1, size // 2, size - 1)
    for si in sis + sis:
        inv = _ref_inv(want[si])
        for ti in (size - 1, si, 1, size // 3):
            got = u.exact(ti, si)
            ref = _ref_mul(want[ti], inv)
            assert got == ref
            assert _canonical(got)
            assert u.matrix(ti, si) == mat_round(ref, p, N)


# -- the integer-form cocycle check against the Fraction product --------------


def _fraction_cocycle(u, ti, si, vi):
    return mat_mul(u.exact(ti, si), u.exact(si, vi)) == u.exact(ti, vi)


@pytest.mark.parametrize("varying", [False, True], ids=["const", "t"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius_exp", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cocycle_holds_matches_fraction_check(p, radius_exp, dim, varying):
    import random
    depth = 3 if p == 2 else 2
    ball = BallSpec(PAdicValue.zero(p, N), radius_exp)
    u = solve_evolution(_scaled_generator(p, radius_exp, dim, varying),
                        ball, depth)
    r = random.Random(p * 100 + radius_exp * 10 + dim)
    triples = [tuple(r.randrange(u.size) for _ in range(3))
               for _ in range(24)]
    # coinciding indices take the identity shortcut in each position
    triples += [(0, 0, 1), (1, 0, 0), (1, 0, 1), (2, 2, 2)]
    for ti, si, vi in triples:
        assert u.cocycle_holds(ti, si, vi)
        assert _fraction_cocycle(u, ti, si, vi)
    # a corrupted inverse of W(s) breaks U(t, s) for every t != s, so the
    # law fails at every triple with t, s, v distinct
    ti, si, vi = 0, u.size - 1, u.size // 2
    rows, _den = u._inv(si)
    rows[0][0] += 1
    assert not u.cocycle_holds(ti, si, vi)
    assert not _fraction_cocycle(u, ti, si, vi)


def test_operator_rejects_indices_outside_the_grid():
    u = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    size = u.size
    for bad in (-1, -size, size, size + 1):
        for args in ((bad, 0), (0, bad), (bad, bad)):
            for call in (u.exact, u.matrix, u._exact_int):
                with pytest.raises(ValueError, match="grid index out of range"):
                    call(*args)
        for args in ((bad, 0, 1), (0, bad, 1), (0, 1, bad)):
            with pytest.raises(ValueError, match="grid index out of range"):
                u.cocycle_holds(*args)
    e = ExpEvolution(const_generator(2)(None), unit_ball(), DEPTH)
    for args in ((-1, 0), (0, size)):
        with pytest.raises(ValueError, match="grid index out of range"):
            e.matrix(*args)
    # both ends of the grid are still in range
    assert u.exact(size - 1, 0) == mat_mul(u.exact(size - 1, 1),
                                           u.exact(1, 0))
    assert u.cocycle_holds(0, size - 1, 0)


def test_perturbation_check_refuses_empty_pairs(monkeypatch):
    import padicsde.evolution as ev

    def no_solve(*args):
        raise AssertionError("solved before refusing empty pairs")

    monkeypatch.setattr(ev, "solve_evolution", no_solve)
    with pytest.raises(ValueError, match="pairs"):
        perturbation_check(const_generator(1), const_generator(2),
                           unit_ball(), DEPTH, [])


def test_perturbation_check_computes_each_exact_matrix_once(
        monkeypatch, tmp_path):
    # the evolve run at p=5, N=6, depth 4, dim 3, 200 triples: its 10
    # pairs and their chains need U(t, s) at 54 distinct (operator, t, s),
    # and each is computed once (computed again at every use, that is 118)
    inside, calls = [False], []
    exact = evolution.EvolutionOperator.exact

    def spy(self, ti, si):
        if inside[0]:
            calls.append((id(self), ti, si))
        return exact(self, ti, si)

    def check(*args):
        inside[0] = True
        try:
            return perturbation_check(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(evolution.EvolutionOperator, "exact", spy)
    monkeypatch.setattr(cli, "perturbation_check", check)
    config = tmp_path / "evolve.json"
    config.write_text(json.dumps({
        "prime": 5, "precision": 6, "depth": 4, "seed": 1,
        "evolve": {"dim": 3, "scale_exp": 3, "triples": 200,
                   "perturb_exp": 5}}))
    assert cli.main(["evolve", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == len(set(calls)) == 54


# -- mat_norm against the per-entry Fraction norm -------------------------------


def _ref_norm(a, p):
    # 16 digits hold every entry drawn below; the norm reads only v
    return max((PAdicValue.from_fraction(x, p, 16).norm()
                for row in a for x in row if x), default=0.0)


# zero, negative, p-power and non-p denominators for p in {2, 3, 5}
_norm_entries = st.builds(Fraction, st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 4, 5, 7, 9, 12, 25, 81]))


@st.composite
def _norm_matrix(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return tuple(tuple(draw(_norm_entries) for _ in range(cols))
                 for _ in range(rows))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), _norm_matrix())
@example(2, ((Fraction(0), Fraction(-3, 8)), (Fraction(12), Fraction(0))))
def test_mat_norm_matches_fraction_reference(p, a):
    assert mat_norm(a, p) == _ref_norm(a, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mat_norm_edge_cases(p):
    assert mat_norm((), p) == 0.0
    assert mat_norm(((),), p) == 0.0
    assert mat_norm(mat_zero(3), p) == 0.0
    one = Fraction(1)
    assert mat_norm(((Fraction(-p ** 3), one / p ** 2),), p) == float(p) ** 2
    assert mat_norm(((Fraction(7, 11 * p),),), p) == float(p)
    assert mat_norm(((Fraction(-11 * p ** 2, 7),),), p) == float(p) ** -2


# -- U(t, t) = I read from the solved family -----------------------------------


def _old_identity_check(u):
    """The check ``identity_at_equal_times`` made before: every
    ``exact(k, k)`` is the identity, which the shared identity always is."""
    return all(u.exact(k, k) == mat_identity(u.dim) for k in range(u.size))


def test_identity_holds_on_a_solved_family():
    u = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    assert u.identity_holds()
    for k in range(u.size):
        u.exact((k + 1) % u.size, k)    # computes every inverse
    assert len(u._inverses) == u.size
    assert u.identity_holds()


def test_identity_check_catches_a_doubled_center_transfer(monkeypatch):
    # doubling the root of the tree pass doubles every transfer, so every
    # U(t, s) = W(t) W(s)**-1, every cocycle and every exact(k, k) is
    # unchanged; only W(center) == I can see it
    scan = evolution._tree_scan

    def doubled_root(p, levels, root, children):
        rows, den = root
        return scan(p, levels, ([[2 * x for x in row] for row in rows], den),
                    children)

    good = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    monkeypatch.setattr(evolution, "_tree_scan", doubled_root)
    bad = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    size = bad.size
    assert bad.exact(size - 1, 1) == good.exact(size - 1, 1)
    assert bad.cocycle_holds(size - 1, 1, size // 2)
    assert _old_identity_check(bad)
    assert not bad.identity_holds()


def test_identity_check_catches_a_transfer_scaled_after_its_inverse():
    u = solve_evolution(const_generator(2), unit_ball(), DEPTH)
    k = u.size // 2
    u.exact(0, k)                       # caches W(k)**-1
    rows, den = u._transfers[k]
    transfers = list(u._transfers)
    transfers[k] = ([[2 * x for x in row] for row in rows], den)
    bad = EvolutionOperator(u.grid, u.dim, transfers)
    bad._inverses.update(u._inverses)
    assert _old_identity_check(bad)
    assert not bad.identity_holds()


def test_mof_check_builds_one_flow_per_path(monkeypatch):
    ball = unit_ball()
    paths = [wiener_path("tree", ball, DEPTH, 2.0, seed=s)
             for s in (101, 202, 303)]
    alpha = PAdicValue.from_int(P**3, P, N)
    beta = PAdicValue.from_int(2 * P**3, P, N)
    inits = tuple(PAdicValue.from_int(c, P, N) for c in (1, 2))
    calls = []
    flow = evolution.scalar_flow

    def counted(a, b, w):
        calls.append(w)
        return flow(a, b, w)

    monkeypatch.setattr(evolution, "scalar_flow", counted)
    rep = mof_check(alpha, beta, paths, q=1.0, initial_values=inits)
    assert rep.representation_ok and rep.chain_ok
    assert calls == paths
