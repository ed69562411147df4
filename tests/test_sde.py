import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicsde import sde
from padicsde.antider import (
    ZERO_CELL,
    GridFunction,
    _tree_scan,
    cell_add,
    cell_mul,
    cell_of,
    cell_round,
    cell_sub,
)
from padicsde.cli import RunConfig, build_problem
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
    functional_program,
    solve_picard,
    stability_diagnostic,
    zero_program,
)

N = 6


def make_problem(p, depth, x0_int=1, drift=None, diffusion=None, family=(),
                 radius_exp=0):
    ball = BallSpec(PAdicValue.zero(p, N), radius_exp)
    return SDEProblem(
        ball=ball,
        depth=depth,
        x0=PAdicValue.from_int(x0_int, p, N),
        drift=drift or zero_program(p, N),
        diffusion=diffusion or zero_program(p, N),
        family=tuple(family),
    )


def affine_program(alpha, c):
    """The state program x -> alpha * x + c."""
    return sde.Program(lambda t, x: alpha * x + c)


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
        assert sol[t] is sol.values.values[k]   # lookup by grid point
    assert sol.residual == 0.0


def test_pure_noise_solution_is_x0_plus_w():
    p = 3
    prob = make_problem(p, 4, x0_int=1,
                        diffusion=constant_program(PAdicValue.one(p, N)))
    w = path_for(prob, 3)
    sol = solve_picard(prob, w)
    for k in range(sol.values.size):
        assert sol.values.values[k] == prob.x0 + w.values[k]
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
    pts = GridFunction.coordinate(grid.ball, grid.depth).values
    x0 = prob.x0.as_fraction()
    out = []
    for k in range(grid.size):
        acc = x0
        for _level, j, jn, (d, e) in grid.chain_steps(k):
            t, x = pts[j], grid.values[j]
            dt = d * Fraction(prob.ball.p) ** e
            dw = w.values[jn].as_fraction() - w.values[j].as_fraction()
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
        lambda t, x, state: pp * state[-1]))
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
    general = solve_picard(fam, w)
    assert picard.values.values == general.values.values
    # drift-only and diffusion-only single-term families
    drift_only = make_problem(p, 3, x0_int=1, drift=drift)
    fam_d = make_problem(p, 3, x0_int=1, drift=drift,
                         family=[FamilyTerm(1, 0, 0, drift)])
    assert solve_picard(drift_only, w).values.values == \
        solve_picard(fam_d, w).values.values
    one = constant_program(PAdicValue.one(p, N))
    diff_only = make_problem(p, 3, x0_int=1, diffusion=diffusion)
    fam_e = make_problem(p, 3, x0_int=1, diffusion=diffusion,
                         family=[FamilyTerm(0, 1, 1, diffusion, e_slot=one)])
    assert solve_picard(diff_only, w).values.values == \
        solve_picard(fam_e, w).values.values


def test_family_two_term_quadratic():
    p = 5
    alpha = PAdicValue.from_int(2, p, N)
    drift = linear_state_program(alpha)
    one = constant_program(PAdicValue.one(p, N))
    small = constant_program(PAdicValue.from_int(p**2, p, N))
    base_terms = [FamilyTerm(1, 0, 0, drift)]
    quad = FamilyTerm(0, 2, 2, small, e_slot=one)
    prob1 = make_problem(p, 3, x0_int=1, drift=drift, family=base_terms)
    prob2 = make_problem(p, 3, x0_int=1, drift=drift,
                         family=base_terms + [quad])
    w = path_for(prob1, 10)
    s1 = solve_picard(prob1, w)
    s2 = solve_picard(prob2, w)
    assert s2.residual == 0.0
    # the added term has norm <= p^-2 * max |dw|^2; the solutions differ by
    # at most that sup-norm
    bound = 0.0
    for k in range(prob1.ball.grid_size(3)):
        for _lev, j, jn, _step in s1.values.chain_steps(k):
            dw = (w.values[jn] - w.values[j]).norm()
            bound = max(bound, (p ** -2.0) * dw * dw)
    gap = max((a - b).norm() for a, b in
              zip(s1.values.values, s2.values.values))
    assert gap <= bound + 1e-12


def test_family_index_validation():
    # l > m, a negative index, and an index that is not an integer: a
    # float b would solve to values with float mantissas
    p = 3
    prog = constant_program(PAdicValue.one(p, N))
    for b, m, l in [(0, 1, 2), (-1, 0, 0), (0.5, 0, 0)]:
        with pytest.raises(ValueError, match="index"):
            FamilyTerm(b, m, l, prog)


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


@pytest.mark.parametrize("diagnostic", [
    lambda prob: moment_diagnostic(prob, [], s=1, c1=1.0, c2=1.0),
    lambda prob: stability_diagnostic(prob, prob.x0, prob.x0, [], s=1,
                                      c1=1.0, c2=1.0),
], ids=["moment", "stability"])
def test_diagnostics_refuse_no_paths(diagnostic):
    with pytest.raises(ValueError, match="at least one path"):
        diagnostic(make_problem(3, 2, x0_int=1))


def test_diagnostic_rows_pinned():
    # rows of the implementation that held every solution before taking the
    # level profile; the running sums add the same floats in the same order
    # (path by path, grid index rising), so the rows agree float for float
    p = 3
    coeffs = (PAdicValue.zero(p, N), PAdicValue.from_int(2, p, N),
              PAdicValue.one(p, N))
    prob = make_problem(p, 4, x0_int=p, drift=polynomial_program(coeffs),
                        diffusion=linear_state_program(PAdicValue.one(p, N)))
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0,
                           MonteCarloEnsemble(19, 6))

    def table(rows):
        return [(r.radius_level, r.stat, r.bound, r.ok) for r in rows]

    assert table(moment_diagnostic(prob, paths, s=1, c1=1.0, c2=0.5)) == [
        (3, 0.3148148148148148, 0.3333333333333333, True),
        (2, 0.3148148148148148, 0.3333333333333333, True),
        (1, 0.524691358024692, 0.4207818930041153, False),
        (0, 8.785246151501346, 5.392623075750673, False)]
    assert table(moment_diagnostic(prob, paths, s=2, c1=1.0, c2=0.5)) == [
        (3, 0.10288065843621402, 0.1111111111111111, True),
        (2, 0.10288065843621402, 0.11682670324645632, True),
        (1, 0.38271604938271697, 0.39711934156378614, True),
        (0, 1561.825566713893, 781.9127833569465, False)]
    a, b = PAdicValue.from_int(1, p, N), PAdicValue.from_int(1 + p, p, N)
    assert table(stability_diagnostic(prob, a, b, paths, s=1, c1=1.0,
                                      c2=0.5)) == [
        (3, 0.3148148148148148, 0.3333333333333333, True),
        (2, 0.3148148148148148, 0.3333333333333333, True),
        (1, 0.5102880658436221, 0.41838134430727036, False),
        (0, 13176.205761316827, 6589.102880658414, False)]


@pytest.mark.parametrize("center", [1, 5])
def test_diagnostic_rows_do_not_depend_on_the_center(center):
    # an autonomous problem's paths and solutions by grid index do not
    # depend on the center, and the radius levels |t - t0| are taken
    # relative to it, so moving the ball leaves every row unchanged
    p = 3
    alpha = PAdicValue.from_int(p, p, N)
    beta = PAdicValue.from_int(2, p, N)
    x0_b = PAdicValue.from_int(1 + p, p, N)
    tables = []
    for c in (0, center):
        prob = replace(make_problem(p, 3, x0_int=1,
                                    drift=linear_state_program(alpha),
                                    diffusion=linear_state_program(beta)),
                       ball=BallSpec(PAdicValue.from_int(c, p, N), 0))
        paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0,
                               MonteCarloEnsemble(29, 8))
        tables.append((
            moment_diagnostic(prob, paths, s=1, c1=1.0, c2=0.5),
            stability_diagnostic(prob, prob.x0, x0_b, paths, s=1, c1=1.0,
                                 c2=0.5)))
    assert tables[1] == tables[0]
    assert [r.radius_level for r in tables[0][0]] == [2, 1, 0]


def test_diagnostics_peak_memory_does_not_grow_with_paths():
    # each path's solution (or pair of solutions) is read into the running
    # level sums and dropped before the next is solved, so 32 paths peak no
    # higher than 2; the first calls warm every cache the measured ones read
    p = 3
    alpha = beta = PAdicValue.from_int(p, p, N)
    prob = make_problem(p, 5, x0_int=1, drift=linear_state_program(alpha),
                        diffusion=linear_state_program(beta))
    paths = ensemble_paths("tree", prob.ball, prob.depth, 2.0,
                           MonteCarloEnsemble(23, 32))
    x0_b = PAdicValue.from_int(1 + p, p, N)
    diagnostics = {
        "moment": lambda ws: moment_diagnostic(prob, ws, s=1, c1=1.0, c2=1.0),
        "stability": lambda ws: stability_diagnostic(
            prob, prob.x0, x0_b, ws, s=1, c1=1.0, c2=1.0),
    }
    for run in diagnostics.values():
        run(paths[:2])
    tracemalloc.start()
    try:
        for name, run in diagnostics.items():
            peaks = []
            for count in (2, 32):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(paths[:count])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert peaks[1] <= 1.1 * peaks[0], (name, peaks)
    finally:
        tracemalloc.stop()


def test_polynomial_coefficients_converge():
    p = 5
    coeffs = (PAdicValue.from_int(1, p, N), PAdicValue.zero(p, N),
              PAdicValue.from_int(5, p, N))
    prob = make_problem(p, 3, x0_int=1,
                        drift=polynomial_program(coeffs))
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
                        drift=functional_program(fn))
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
        assert sol.values.values[k] == prob.x0 + w.values[k]


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


# objects held by both lists, as a sweep that keeps unchanged values
# leaves them: beside a differing pair, as the only pairs, and a zero
_SHARED = PAdicValue(3, N, -1, 4)
_SHARED_ZERO = PAdicValue.zero(2, N)


@settings(max_examples=300, deadline=None)
@given(defect_lists())
@example((3, [_SHARED, PAdicValue(3, N, 2, 1), _SHARED],
          [_SHARED, PAdicValue(3, N, 2, 4), _SHARED]))
@example((3, [_SHARED] * 4, [_SHARED] * 4))
@example((2, [_SHARED_ZERO, PAdicValue(2, N, 0, 1)],
          [_SHARED_ZERO, PAdicValue(2, N, 0, 3)]))
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
        lambda t, x, state: pp * state[-1]))
    w = path_for(prob, seed)
    sol = solve_picard(prob, w)
    assert sol.iterations > 2 and sol.defect_trace[-2] > 0.0
    monkeypatch.setattr(sde, "_defect",
                        lambda p, new, old: _defect_reference(new, old))
    assert solve_picard(prob, w).defect_trace == sol.defect_trace


# -- parity with the cell-by-cell sweep ------------------------------------------


def _cell_pow(a, k):
    return (1, 0) if k == 0 else (a[0] ** k, a[1] * k) if a[0] else ZERO_CELL


def _edge_cell_reference(p, pieces, step, dw):
    """One digit step's mixed-power terms, one cell operation at a time."""
    total = ZERO_CELL
    for du, ma, l, pv, av, ev in pieces:
        term = pv
        if du:
            term = cell_mul(term, _cell_pow(step, du))
        if ma:
            term = cell_mul(term, _cell_pow(av, ma))
        if l:
            term = cell_mul(term, _cell_pow(cell_mul(ev, dw), l))
        total = cell_add(p, total, term)
    return total


def _solve_picard_reference(problem, w, initial=None):
    """The sweep as cells: every edge recomputes its path increment, sums
    its terms into a fresh cell and rounds a new value."""
    ball, depth = problem.ball, problem.depth
    p, n, r = ball.p, ball.n, ball.radius_exp
    size = ball.grid_size(depth)
    points = GridFunction.coordinate(ball, depth).values
    wcells = tuple(cell_of(v) for v in w.values)
    x0cell = cell_of(problem.x0)
    family = problem.family or picard_as_family(problem).family
    root = cell_round(p, n, x0cell)
    cur = list(initial) if initial is not None else [problem.x0] * size
    cur[0] = root
    drift, diffusion = problem.drift, problem.diffusion
    state = cur
    # whether some term with a nonzero program value has a power of dw
    read_path = False

    def children(level, j, node, kids):
        nonlocal read_path
        acc, x = node
        t = points[j]
        pieces = []
        for ft in family:
            pv = cell_of(ft.prog(t, x, state))
            av = cell_of((ft.a_slot or drift)(t, x, state)) \
                if ft.m - ft.l else None
            ev = cell_of((ft.e_slot or diffusion)(t, x, state)) \
                if ft.l else None
            if pv[0]:
                pieces.append((ft.b + ft.m - ft.l, ft.m - ft.l, ft.l,
                               pv, av, ev))
                read_path = read_path or ft.l > 0
        out = []
        for d, jn in enumerate(kids, 1):
            dw = cell_sub(p, wcells[jn], wcells[j])
            cell = cell_add(p, acc, _edge_cell_reference(
                p, pieces, (d, level - r), dw))
            out.append((cell, cell_round(p, n, cell_add(p, x0cell, cell))))
        return out

    trace = []
    for _ in range(n * p):
        state = cur
        cur = [x for _, x in _tree_scan(p, r + depth, (ZERO_CELL, root),
                                        children)]
        trace.append(_defect_reference(cur, state))
        if trace[-1] == 0.0:
            break
    ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 0]
    return sde.SDESolution(
        values=GridFunction(ball, depth, tuple(cur)),
        iterations=len(trace), defect_trace=tuple(trace),
        contraction={"ball[level=0,index=0]": max(ratios, default=0.0)},
        residual=trace[-1], subdivisions=(), read_path=read_path)


def _starts(prob, sol):
    """Perturbed starts: a constant shift, and the solution with every
    other value bumped, shifted in valuation or raised in precision, so
    that some start values equal the solution only in v and m, or only
    in m and n."""
    p, n = prob.ball.p, prob.ball.n
    bump = PAdicValue.from_int(2, p, n)
    vals = sol.values.values
    yield tuple(prob.x0 + bump for _ in vals)
    yield tuple(x + bump if k % 2 else x for k, x in enumerate(vals))
    yield tuple(PAdicValue(p, n, x.v + 1, x.m) if k % 2 and x.m else x
                for k, x in enumerate(vals))
    yield tuple(PAdicValue(p, n + 1, x.v, x.m) if k % 3 else x
                for k, x in enumerate(vals))


def _assert_parity(prob, w):
    ref = _solve_picard_reference(prob, w)
    assert solve_picard(prob, w) == ref
    for start in _starts(prob, ref):
        assert solve_picard(prob, w, initial=start) == \
            _solve_picard_reference(prob, w, initial=start)


@pytest.mark.parametrize("name", ["zero", "pure_drift", "pure_noise",
                                  "linear_drift", "linear", "steep",
                                  "polynomial", "locally_constant"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("radius_exp", [0, 1])
def test_sweep_matches_cell_reference(name, p, radius_exp):
    cfg = RunConfig({"prime": p, "precision": N, "depth": 3,
                     "radius_exp": radius_exp, "solve": {"problem": name}},
                    "solve")
    prob, _ = build_problem(cfg)
    w = wiener_path("tree", prob.ball, prob.depth, 2.0,
                    seed=100 * p + 10 * radius_exp + len(name))
    _assert_parity(prob, w)


@pytest.mark.parametrize("name", ["steep", "linear", "pure_noise"])
@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("radius_exp", [0, 1])
def test_shallow_sweep_matches_cell_reference(name, depth, radius_exp):
    # the sweep reads its points from the grid one level up: at depth 1
    # that grid has depth 0, and at depth 0 with radius_exp 0 the grid is
    # the center alone and has no interior
    p = 3
    cfg = RunConfig({"prime": p, "precision": N, "depth": 1,
                     "radius_exp": radius_exp, "solve": {"problem": name}},
                    "solve")
    prob = replace(build_problem(cfg)[0], depth=depth)
    w = wiener_path("tree", prob.ball, depth, 2.0, seed=50 + depth)
    _assert_parity(prob, w)


@pytest.mark.parametrize("p, radius_exp", [
    pytest.param(p, r, id=f"{p}-r{r}" if r else f"{p}")
    for r in (0, 1, 2) for p in (2, 3, 5)])
def test_functional_sweep_matches_cell_reference(p, radius_exp):
    # three or more sweeps over one solve's exact-sum lists, also on the
    # grids whose first steps have |dt| = p**radius_exp > 1; the
    # functional coefficient p**(1 + radius_exp) keeps the map contracting
    pp = PAdicValue.from_int(p, p, N).scale_pow(radius_exp)
    prob = make_problem(p, 3, x0_int=1, radius_exp=radius_exp,
                        diffusion=linear_state_program(pp),
                        drift=functional_program(
                            lambda t, x, state: pp * state[-1] + x))
    w = path_for(prob, 40 + p + 10 * radius_exp)
    assert solve_picard(prob, w).iterations > 2
    _assert_parity(prob, w)


@pytest.mark.parametrize("p, radius_exp", [(2, 0), (3, 1), (5, 0), (5, 1)])
def test_four_term_family_matches_cell_reference(p, radius_exp):
    # every (du, ma, l) shape the fold handles: du up to 3, a-slot and
    # e-slot powers up to 2
    ball = BallSpec(PAdicValue.from_int(1, p, N), radius_exp)
    drift = linear_state_program(PAdicValue.from_int(2, p, N))
    diffusion = affine_program(PAdicValue.from_int(p, p, N),
                               PAdicValue.one(p, N))
    slot = affine_program(PAdicValue.from_int(3, p, N),
                          PAdicValue.from_rational(1, p, p, N))
    family = (FamilyTerm(1, 0, 0, drift),
              FamilyTerm(0, 2, 2, constant_program(
                  PAdicValue.from_int(p, p, N)), e_slot=slot),
              FamilyTerm(2, 1, 0, linear_state_program(
                  PAdicValue.from_int(p + 1, p, N))),
              FamilyTerm(1, 2, 1, constant_program(
                  PAdicValue.from_int(2, p, N)), a_slot=slot))
    prob = SDEProblem(ball=ball, depth=3, x0=PAdicValue.from_int(3, p, N),
                      drift=drift, diffusion=diffusion, family=family)
    w = wiener_path("tree", ball, 3, 2.0, seed=7 + p)
    _assert_parity(prob, w)
    assert solve_picard(prob, w) == _solve_picard_reference(prob, w)


@pytest.mark.parametrize("extra", [-(3**3 - 1), 1])
def test_initial_of_wrong_length_rejected(extra):
    p = 3
    prob = make_problem(p, 3, x0_int=1,
                        drift=linear_state_program(PAdicValue.from_int(2, p, N)),
                        diffusion=linear_state_program(
                            PAdicValue.from_int(p, p, N)))
    w = path_for(prob, 14)
    size = prob.ball.grid_size(3)
    with pytest.raises(ValueError, match="initial"):
        solve_picard(prob, w, initial=(prob.x0,) * (size + extra))
    assert solve_picard(prob, w, initial=(prob.x0,) * size).iterations == 2


def test_initial_at_another_prime_rejected():
    prob = make_problem(3, 2, x0_int=1)
    start = (PAdicValue.one(5, N),) * prob.ball.grid_size(2)
    with pytest.raises(ValueError, match="initial"):
        solve_picard(prob, path_for(prob, 15), initial=start)


def test_verifying_sweep_builds_no_value():
    p = 5
    prob = make_problem(p, 3, x0_int=1,
                        drift=linear_state_program(PAdicValue.from_int(2, p, N)),
                        diffusion=linear_state_program(
                            PAdicValue.from_int(p, p, N)))
    w = path_for(prob, 16)
    sol = solve_picard(prob, w)
    again = solve_picard(prob, w, initial=sol.values.values)
    assert again.iterations == 1
    assert all(a is b for a, b in zip(again.values.values[1:],
                                      sol.values.values[1:]))


def test_zero_term_slots_are_never_called():
    # a term whose program value is zero at a node is dropped before its
    # a-slot and e-slot programs run; the solution does not change
    p = 3
    calls = {"a": 0, "e": 0}

    def counting(key, value):
        def fn(t, x):
            calls[key] += 1
            return value
        return sde.Program(fn)

    drift = linear_state_program(PAdicValue.from_int(2, p, N))
    diffusion = affine_program(PAdicValue.from_int(p, p, N),
                               PAdicValue.one(p, N))
    two = PAdicValue.from_int(2, p, N)
    dead = FamilyTerm(1, 2, 1, zero_program(p, N),
                      a_slot=counting("a", two), e_slot=counting("e", two))
    base = (FamilyTerm(1, 0, 0, drift),
            FamilyTerm(0, 1, 1, diffusion,
                       e_slot=constant_program(PAdicValue.one(p, N))))
    with_dead = make_problem(p, 3, drift=drift, diffusion=diffusion,
                             family=base + (dead,))
    without = make_problem(p, 3, drift=drift, diffusion=diffusion,
                           family=base)
    w = path_for(with_dead, 17)
    got = solve_picard(with_dead, w)
    assert calls == {"a": 0, "e": 0}
    assert got == solve_picard(without, w)
    assert got == _solve_picard_reference(with_dead, w)
    # the same slots on a live term are called at every interior node of
    # every sweep
    calls.update(a=0, e=0)
    live = FamilyTerm(1, 2, 1, constant_program(PAdicValue.from_int(p, p, N)),
                      a_slot=counting("a", two), e_slot=counting("e", two))
    sol = solve_picard(make_problem(p, 3, drift=drift, diffusion=diffusion,
                                    family=base + (live,)), w)
    interior = (p**3 - 1) // (p - 1)
    assert calls["a"] == calls["e"] == sol.iterations * interior


def test_the_unit_slot_is_never_called(monkeypatch):
    # the drift/diffusion form's path term (0, 1, 1) reaches the kernel
    # with the unit slot as None, so a linear solve calls its drift and
    # its diffusion once per interior node per sweep and no third program
    # (a constant-one slot program was once called there too)
    p, depth = 5, 4
    calls = [0]
    call = sde.Program.__call__

    def counting(self, *args):
        calls[0] += 1
        return call(self, *args)

    prob = make_problem(p, depth, x0_int=1,
                        drift=linear_state_program(PAdicValue.from_int(2, p, N)),
                        diffusion=linear_state_program(
                            PAdicValue.from_int(3, p, N)))
    w = path_for(prob, 5)
    monkeypatch.setattr(sde.Program, "__call__", counting)
    sol = solve_picard(prob, w)
    assert sol.read_path
    interior = (p**depth - 1) // (p - 1)
    assert calls[0] == 2 * interior * sol.iterations
    monkeypatch.undo()
    # the same bits as an explicit constant-one slot, which the unit slot
    # answers when it is called
    one = PAdicValue.one(p, N)
    explicit = replace(prob, family=(
        FamilyTerm(1, 0, 0, prob.drift),
        FamilyTerm(0, 1, 1, prob.diffusion, e_slot=constant_program(one))))
    assert solve_picard(explicit, w).values == sol.values
    assert sde.UNIT_SLOT(prob.ball.center, prob.x0) == one


@pytest.mark.parametrize("name, builds", [("linear", 1), ("steep", 0)])
def test_the_increment_table_is_built_once_and_only_when_read(
        monkeypatch, name, builds):
    # the path increments are one table per solve, built when a term
    # first reads dw: a linear solve builds it in its first sweep and its
    # verifying sweep reads the same table; the steep problem's diffusion
    # is zero, so its path term is dropped and dw is never read
    cfg = RunConfig({"prime": 5, "precision": N, "depth": 3,
                     "solve": {"problem": name}}, "solve")
    prob, _ = build_problem(cfg)
    w = wiener_path("tree", prob.ball, prob.depth, 2.0, seed=7)
    built = []
    increments = sde._increments

    def counting(path):
        built.append(path)
        return increments(path)

    monkeypatch.setattr(sde, "_increments", counting)
    sol = solve_picard(prob, w)
    assert sol.iterations == 2
    assert len(built) == builds and all(path is w for path in built)
    assert sol.read_path == bool(builds)


def test_a_path_free_prior_answers_without_a_program_call():
    # no term reads dw, so the second path's solve is the first one's: it
    # calls no program and returns the prior itself
    p = 3
    calls = [0]
    alpha = PAdicValue.from_int(p, p, N)

    def fn(t, x):
        calls[0] += 1
        return alpha * x

    prob = make_problem(p, 3, x0_int=2, drift=sde.Program(fn))
    first = solve_picard(prob, path_for(prob, 1))
    assert not first.read_path and calls[0] > 0
    calls[0] = 0
    w = path_for(prob, 2)
    assert w.values != path_for(prob, 1).values
    assert solve_picard(prob, w, prior=first) is first
    assert calls[0] == 0
    assert solve_picard(prob, w) == first


@pytest.mark.parametrize("name", ["zero", "pure_drift", "pure_noise",
                                  "linear_drift", "linear", "steep",
                                  "polynomial", "locally_constant"])
@pytest.mark.parametrize("radius_exp", [0, 1])
def test_chained_priors_equal_fresh_solves(name, radius_exp):
    # each sample passes the previous solution on, as ``solve`` does: the
    # two problems with a diffusion read every path and solve every
    # sample, the six without share the first sample's solution
    cfg = RunConfig({"prime": 3, "precision": N, "depth": 3,
                     "radius_exp": radius_exp, "solve": {"problem": name}},
                    "solve")
    prob, _ = build_problem(cfg)
    noisy = name in ("pure_noise", "linear")
    prior = first = None
    for seed in range(3):
        w = path_for(prob, 60 + seed)
        sol = solve_picard(prob, w, prior=prior)
        assert sol == solve_picard(prob, w)
        assert sol.read_path == noisy
        assert (sol is first) == (seed > 0 and not noisy)
        prior = sol
        first = first or sol


def test_a_prior_of_another_grid_is_refused():
    p = 3
    prob = make_problem(p, 3, x0_int=1)
    deeper = replace(prob, depth=4)
    prior = solve_picard(deeper, path_for(deeper, 3))
    with pytest.raises(ValueError, match="prior grid"):
        solve_picard(prob, path_for(prob, 3), prior=prior)


def test_noise_free_diagnostics_match_solving_every_path(monkeypatch):
    # without a diffusion each diagnostic solves once per start: moment
    # once, stability once for x0_a and once for x0_b.  The rows equal
    # those of a solve on every path
    p = 3
    calls = [0]
    poly = polynomial_program((PAdicValue.zero(p, N),
                               PAdicValue.from_int(2, p, N),
                               PAdicValue.one(p, N)))

    def fn(t, x):
        calls[0] += 1
        return poly(t, x)

    prob = make_problem(p, 4, x0_int=p, drift=sde.Program(fn))
    paths = ensemble_paths("tree", prob.ball, prob.depth, 1.0,
                           MonteCarloEnsemble(19, 6))
    a, b = PAdicValue.from_int(1, p, N), PAdicValue.from_int(1 + p, p, N)

    def tables():
        calls[0] = 0
        rows = [(r.radius_level, r.stat, r.bound, r.ok)
                for rows in (moment_diagnostic(prob, paths, 2, 1.0, 0.5),
                             stability_diagnostic(prob, a, b, paths, 1,
                                                  1.0, 0.5))
                for r in rows]
        return rows, calls[0]

    shared, shared_calls = tables()
    fresh = sde.solve_picard
    monkeypatch.setattr(sde, "solve_picard",
                        lambda problem, w, prior=None: fresh(problem, w))
    every, every_calls = tables()
    assert shared == every
    # pointwise solves take two sweeps each, so every solve calls the
    # drift as often: 3 solves shared against 3 per path
    assert every_calls == len(paths) * shared_calls > 0
