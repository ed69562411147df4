from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicsde import sde
from padicsde.measure import MonteCarloEnsemble, wiener_path
from padicsde.padic import BallSpec, PAdicValue
from padicsde.sde import (
    FamilyTerm,
    SDEProblem,
    constant_program,
    ensemble_paths,
    linear_state_program,
    moment_diagnostic,
    picard_as_family,
    polynomial_program,
    solve_general,
    functional_program,
    solve_picard,
    stability_diagnostic,
    zero_program,
)

N = 6


def make_problem(p, depth, x0_int=1, drift=None, diffusion=None, family=()):
    ball = BallSpec.unit(p, N)
    return SDEProblem(
        ball=ball,
        depth=depth,
        x0=PAdicValue.from_int(x0_int, p, N),
        drift=drift or zero_program(p, N),
        diffusion=diffusion or zero_program(p, N),
        family=tuple(family),
    )


def path_for(problem, seed):
    return wiener_path("tree", problem.ball, problem.depth, 1.0, seed=seed)


def test_zero_coefficients_constant_solution():
    prob = make_problem(5, 3, x0_int=4)
    sol = solve_picard(prob, path_for(prob, 1))
    assert all(v == prob.x0 for v in sol.values.values)
    assert sol.residual == 0.0
    assert sol.iterations <= 2


def test_pure_drift_solution_is_x0_plus_t():
    p = 5
    prob = make_problem(p, 4, x0_int=2,
                        drift=constant_program(PAdicValue.one(p, N)))
    sol = solve_picard(prob, path_for(prob, 2))
    for k in range(sol.values.size):
        t = prob.ball.point(k, prob.depth)
        assert sol.values.values[k] == prob.x0 + t
    assert sol.residual == 0.0


def test_pure_noise_solution_is_x0_plus_w():
    p = 3
    prob = make_problem(p, 4, x0_int=1,
                        diffusion=constant_program(PAdicValue.one(p, N)))
    w = path_for(prob, 3)
    sol = solve_picard(prob, w)
    for k in range(sol.values.size):
        assert sol.values.values[k] == prob.x0 + w.at_index(k)
    assert sol.residual == 0.0


def test_linear_drift_contracts_without_subdivision():
    p = 5
    alpha = PAdicValue.from_int(1, p, N)
    prob = make_problem(p, 4, x0_int=1, drift=linear_state_program(alpha))
    sol = solve_picard(prob, path_for(prob, 4))
    assert sol.residual == 0.0
    assert not sol.subdivisions
    assert all(c < 1.0 for c in sol.contraction.values())


def _chain_sum_reference(prob, w, sol):
    """Every point's equation recomputed from the delivered values: the
    exact chain sum of drift * dt + diffusion * dw over the digit steps,
    in rationals, rounded once."""
    grid = sol.values
    x0 = prob.x0.as_fraction()
    out = []
    for k in range(grid.size):
        acc = x0
        for _level, j, jn, (d, e) in grid.chain_steps(k):
            t, x = grid.point(j), grid.values[j]
            dt = d * Fraction(prob.ball.p) ** e
            dw = w.at_index(jn).as_fraction() - w.at_index(j).as_fraction()
            acc += prob.drift(t, x).as_fraction() * dt
            acc += prob.diffusion(t, x).as_fraction() * dw
        out.append(PAdicValue.from_fraction(acc, prob.ball.p, N))
    return tuple(out)


def test_steep_drift_solved_in_one_pass():
    # Lipschitz constant p: the equation is still triangular on the digit
    # tree, so one sweep solves it and a second verifies it
    p = 3
    alpha = PAdicValue.from_rational(1, p, p, N)  # norm p
    prob = make_problem(p, 4, x0_int=1, drift=linear_state_program(alpha))
    w = path_for(prob, 5)
    sol = solve_picard(prob, w)
    assert sol.iterations == 2
    assert sol.subdivisions == ()
    assert sol.residual == 0.0
    assert sol.values.values == _chain_sum_reference(prob, w, sol)


def test_linear_noise_matches_chain_sum_reference():
    p = 5
    prob = make_problem(p, 3, x0_int=2,
                        drift=linear_state_program(PAdicValue.from_int(3, p, N)),
                        diffusion=linear_state_program(
                            PAdicValue.from_int(p, p, N)))
    w = path_for(prob, 12)
    sol = solve_picard(prob, w)
    assert sol.iterations == 2 and sol.residual == 0.0
    assert sol.values.values == _chain_sum_reference(prob, w, sol)


def test_max_iter_exhausted_raises():
    # a functional drift reading the last grid value needs several sweeps
    from padicsde.sde import functional_program

    p = 3
    pp = PAdicValue.from_int(p, p, N)
    prob = make_problem(p, 3, x0_int=1, drift=functional_program(
        "last", lambda t, x, state: pp * state[-1]))
    w = path_for(prob, 13)
    assert solve_picard(prob, w).iterations > 2
    with pytest.raises(ValueError, match="stabilize"):
        solve_picard(prob, w, max_iter=2)


def test_unique_fixed_point_from_perturbed_start():
    p = 5
    alpha = PAdicValue.from_int(2, p, N)
    prob = make_problem(p, 3, x0_int=1, drift=linear_state_program(alpha))
    w = path_for(prob, 6)
    base = solve_picard(prob, w)
    bump = PAdicValue.from_int(3, p, N)
    shifted = tuple(prob.x0 + bump for _ in range(prob.ball.grid_size(3)))
    pert = solve_picard(prob, w, initial=shifted)
    assert base.values.values == pert.values.values


def test_solution_is_path_measurable():
    # permuting ensemble order leaves each per-path solution unchanged
    p = 3
    prob = make_problem(p, 3, x0_int=1,
                        diffusion=constant_program(PAdicValue.one(p, N)))
    ens = MonteCarloEnsemble(77, 6)
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0, ens)
    sols = [solve_picard(prob, w).values.values for w in paths]
    sols_rev = [solve_picard(prob, w).values.values for w in reversed(paths)]
    assert sols == list(reversed(sols_rev))


def test_defect_trace_strictly_decreasing():
    p = 5
    alpha = PAdicValue.from_int(1, p, N)
    prob = make_problem(p, 4, x0_int=1, drift=linear_state_program(alpha))
    sol = solve_picard(prob, path_for(prob, 8))
    trace = [d for d in sol.defect_trace if d > 0]
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_family_single_term_reductions_bit_identical():
    p = 5
    alpha = PAdicValue.from_int(2, p, N)
    beta = PAdicValue.from_int(3, p, N)
    drift = linear_state_program(alpha)
    diffusion = linear_state_program(beta)
    prob = make_problem(p, 3, x0_int=1, drift=drift, diffusion=diffusion)
    w = path_for(prob, 9)
    picard = solve_picard(prob, w)
    fam = picard_as_family(prob)
    general = solve_general(fam, w)
    assert picard.values.values == general.values.values
    # drift-only and diffusion-only single-term families
    drift_only = make_problem(p, 3, x0_int=1, drift=drift)
    fam_d = make_problem(p, 3, x0_int=1, drift=drift,
                         family=[FamilyTerm(1, 0, 0, drift)])
    assert solve_picard(drift_only, w).values.values == \
        solve_general(fam_d, w).values.values
    one = constant_program(PAdicValue.one(p, N))
    diff_only = make_problem(p, 3, x0_int=1, diffusion=diffusion)
    fam_e = make_problem(p, 3, x0_int=1, diffusion=diffusion,
                         family=[FamilyTerm(0, 1, 1, diffusion, e_slot=one)])
    assert solve_picard(diff_only, w).values.values == \
        solve_general(fam_e, w).values.values


def test_family_two_term_quadratic():
    p = 5
    alpha = PAdicValue.from_int(2, p, N)
    drift = linear_state_program(alpha)
    one = constant_program(PAdicValue.one(p, N))
    small = constant_program(PAdicValue.from_int(p**2, p, N))
    base_terms = [FamilyTerm(1, 0, 0, drift)]
    quad = FamilyTerm(0, 2, 2, small, e_slot=one, declared_norm=p ** -2.0)
    prob1 = make_problem(p, 3, x0_int=1, drift=drift, family=base_terms)
    prob2 = make_problem(p, 3, x0_int=1, drift=drift,
                         family=base_terms + [quad])
    w = path_for(prob1, 10)
    s1 = solve_general(prob1, w)
    s2 = solve_general(prob2, w)
    assert s2.residual == 0.0
    # the added term has norm <= p^-2 * max |dw|^2; the solutions differ by
    # at most that sup-norm
    bound = 0.0
    for k in range(prob1.ball.grid_size(3)):
        for _lev, j, jn, _step in s1.values.chain_steps(k):
            dw = (w.at_index(jn) - w.at_index(j)).norm()
            bound = max(bound, (p ** -2.0) * dw * dw)
    gap = max((a - b).norm() for a, b in
              zip(s1.values.values, s2.values.values))
    assert gap <= bound + 1e-12


def test_family_decay_validation():
    p = 3
    big = constant_program(PAdicValue.one(p, N))
    with pytest.raises(ValueError, match="decay"):
        make_problem(p, 3, family=[
            FamilyTerm(1, 0, 0, big, declared_norm=0.1),
            FamilyTerm(0, 2, 0, big, declared_norm=1.0),
        ])


def test_family_index_validation():
    p = 3
    prog = constant_program(PAdicValue.one(p, N))
    with pytest.raises(ValueError, match="index"):
        FamilyTerm(0, 1, 2, prog)


def test_lipschitz_advisory():
    p = 5
    alpha = PAdicValue.from_int(3, p, N)
    prob = make_problem(p, 3, drift=linear_state_program(alpha))
    measured = prob.validate_lipschitz(samples=64, seed=1)
    assert measured <= prob.drift.lipschitz + 1e-12


def test_moment_diagnostic_zero_problem():
    p = 3
    prob = make_problem(p, 3, x0_int=0)
    ens = MonteCarloEnsemble(5, 4)
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0, ens)
    rows = moment_diagnostic(prob, paths, s=1, c1=0.0, c2=0.0)
    assert all(r.stat == 0.0 and r.ok for r in rows)


def test_moment_diagnostic_linear_problem():
    # s-th moments of a q-Gaussian norm exist only for s < q, so the
    # diagnostic pairs s = 1 with q = 2 paths
    p = 3
    alpha = PAdicValue.from_int(p, p, N)
    beta = PAdicValue.from_int(p, p, N)
    prob = make_problem(p, 3, x0_int=1, drift=linear_state_program(alpha),
                        diffusion=linear_state_program(beta))
    ens = MonteCarloEnsemble(11, 32)
    paths = ensemble_paths("tree", prob.ball, prob.depth, 2.0, ens)
    rows = moment_diagnostic(prob, paths, s=1, c1=float(p**3), c2=2.0)
    assert all(r.ok for r in rows)


def test_stability_zero_gap_exact():
    p = 3
    alpha = PAdicValue.from_int(2, p, N)
    prob = make_problem(p, 3, x0_int=1, drift=linear_state_program(alpha))
    ens = MonteCarloEnsemble(13, 8)
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0, ens)
    x0 = PAdicValue.from_int(1, p, N)
    rows = stability_diagnostic(prob, x0, x0, paths, s=1, c1=1.0, c2=1.0)
    assert all(r.stat == 0.0 and r.ok for r in rows)


def test_stability_constant_coefficients_tight():
    p = 5
    prob = make_problem(p, 3, x0_int=0,
                        drift=constant_program(PAdicValue.from_int(2, p, N)),
                        diffusion=constant_program(PAdicValue.one(p, N)))
    ens = MonteCarloEnsemble(17, 8)
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0, ens)
    a = PAdicValue.from_int(1, p, N)
    b = PAdicValue.from_int(2, p, N)  # gap norm 1
    rows = stability_diagnostic(prob, a, b, paths, s=1,
                                c1=float(p**3), c2=0.0)
    assert all(r.stat == 1.0 for r in rows)
    assert all(r.ok for r in rows)


def test_polynomial_coefficients_converge():
    p = 5
    coeffs = (PAdicValue.from_int(1, p, N), PAdicValue.zero(p, N),
              PAdicValue.from_int(5, p, N))
    prob = make_problem(p, 3, x0_int=1,
                        drift=polynomial_program(coeffs, lipschitz=1.0))
    sol = solve_picard(prob, path_for(prob, 21))
    assert sol.residual == 0.0


def test_functional_coefficient_program():
    # the drift may read the whole previous iterate; anchoring it to the
    # center value keeps it constant across sweeps
    from padicsde.sde import functional_program

    p = 5
    kappa = PAdicValue.from_int(2, p, N)

    def fn(t, x, state):
        return kappa * state[0]

    prob = make_problem(p, 3, x0_int=3,
                        drift=functional_program("anchor", fn))
    sol = solve_picard(prob, path_for(prob, 30))
    for k in range(sol.values.size):
        t = prob.ball.point(k, prob.depth)
        assert sol.values.values[k] == prob.x0 + kappa * prob.x0 * t
    assert sol.residual == 0.0


def test_solver_accepts_series_paths():
    from padicsde.measure import standard_zetas

    p = 3
    prob = make_problem(p, 3, x0_int=1,
                        diffusion=constant_program(PAdicValue.one(p, N)))
    w = wiener_path("mahler", prob.ball, prob.depth, 1.0, seed=44,
                    zetas=standard_zetas(p, N, 8))
    sol = solve_picard(prob, w)
    assert sol.residual == 0.0
    for k in range(sol.values.size):
        assert sol.values.values[k] == prob.x0 + w.at_index(k)


def _defect_reference(new, old):
    """The sweep defect as a difference of values: the largest norm of
    new - old over the pairs that differ."""
    return max(((a - b).norm() for a, b in zip(new, old) if a != b),
               default=0.0)


@st.composite
def defect_lists(draw):
    """Two equally long value lists at one prime and mixed precisions:
    zeros on either side, equal valuations (which carry at p=2), values
    equal up to precision, and identical entries."""
    p = draw(st.sampled_from([2, 3, 5]))

    def value(n, v=None):
        if v is None and draw(st.integers(0, 4)) == 0:
            return PAdicValue.zero(p, n)
        m = draw(st.integers(1, p**n - 1).filter(lambda k: k % p))
        return PAdicValue(p, n, draw(st.integers(-3, 3)) if v is None else v,
                          m)

    new, old = [], []
    for _ in range(draw(st.integers(0, 8))):
        a = value(draw(st.integers(1, N)))
        kind = draw(st.sampled_from(["any", "same", "same_v", "truncated"]))
        n = draw(st.integers(1, N))
        if kind == "same":
            b = a
        elif kind == "same_v" and a.m:
            b = value(n, a.v)
        elif kind == "truncated" and a.m:
            b = PAdicValue(p, n, a.v, a.m % p**n)
        else:
            b = value(n)
        pair = (a, b) if draw(st.booleans()) else (b, a)
        new.append(pair[0])
        old.append(pair[1])
    return p, new, old


@settings(max_examples=300, deadline=None)
@given(defect_lists())
@example((2, [PAdicValue(2, N, 0, 1)], [PAdicValue(2, N, 0, 33)]))
@example((2, [PAdicValue(2, N, 1, 3)], [PAdicValue(2, 3, 1, 3)]))
@example((3, [PAdicValue.zero(3, N)], [PAdicValue(3, N, -2, 5)]))
@example((3, [PAdicValue(3, N, 4, 5)], [PAdicValue.zero(3, 2)]))
@example((5, [PAdicValue(5, N, 1, 7)] * 3, [PAdicValue(5, N, 1, 7)] * 3))
@example((5, [], []))
def test_defect_matches_value_difference(case):
    p, new, old = case
    assert sde._defect(p, new, old) == _defect_reference(new, old)


@pytest.mark.parametrize("p, seed", [(2, 5), (3, 13)])
def test_functional_defect_trace_matches_reference(monkeypatch, p, seed):
    # reading the last grid value, the drift changes from sweep to sweep
    pp = PAdicValue.from_int(p, p, N)
    prob = make_problem(p, 3, x0_int=1, drift=functional_program(
        "last", lambda t, x, state: pp * state[-1]))
    w = path_for(prob, seed)
    sol = solve_picard(prob, w)
    assert sol.iterations > 2 and sol.defect_trace[-2] > 0.0
    monkeypatch.setattr(sde, "_defect",
                        lambda p, new, old: _defect_reference(new, old))
    assert solve_picard(prob, w).defect_trace == sol.defect_trace
