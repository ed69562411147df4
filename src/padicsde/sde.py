"""Picard fixed-point solvers for stochastic antiderivational equations,
with moment and stability diagnostics.

The state equation is ``xi(t) = xi0 + P_u a(u, xi) + P_w e(u, xi)`` over the
digit grid of a ball; the generalized form replaces the two terms by a
finite family of mixed-power terms, and the drift/diffusion form is solved
as its two-term family.  The equation is triangular on the digit tree: the
chain sum at t reads the solution only at proper prefixes of t.  A sweep
is therefore one level-order pass in which every node's value is final
before its children are built, evaluated in exact integer cells and
rounded once per grid point.  For pointwise coefficients the first sweep
delivers the unique fixed point and a second one, the Picard map applied
to the delivered solution, changes nothing: that zero defect is the
reported residual.  Functional coefficients read the previous sweep's
whole iterate, so for them sweeps repeat until one changes no value.

States are scalars (H = K).  Diagonal systems over K^d can be solved one
coordinate at a time; coupled operator-valued systems live in the evolution
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .antider import (
    ZERO_CELL,
    GridFunction,
    _edge_cell,
    _tree_scan,
    cell_add,
    cell_of,
    cell_round,
    cell_sub,
)
from .measure import MonteCarloEnsemble, WienerPath, wiener_path
from .padic import BallSpec, PAdicValue


@dataclass(frozen=True)
class Program:
    """A named coefficient program over (grid point, state value).

    ``lipschitz`` is the user-declared local Lipschitz constant in the
    state; it is spot-validated by sampling, never inferred.

    A ``functional`` program receives the whole previous iterate (the
    state as an element of the continuous-function space) as a third
    argument; pointwise programs are the common special case.
    """

    name: str
    fn: Callable
    lipschitz: float = 0.0
    functional: bool = False

    def __call__(self, t: PAdicValue, x: PAdicValue, state=None) -> PAdicValue:
        if self.functional:
            return self.fn(t, x, state)
        return self.fn(t, x)


def functional_program(name: str, fn, lipschitz: float = 0.0) -> Program:
    """A coefficient depending on the whole current iterate; fn receives
    (t, x, values) with values the previous iterate over the grid."""
    return Program(name, fn, lipschitz=lipschitz, functional=True)


def zero_program(p: int, n: int) -> Program:
    z = PAdicValue.zero(p, n)
    return Program("zero", lambda t, x: z)


def constant_program(value: PAdicValue) -> Program:
    return Program(f"constant({value.qp_str()})", lambda t, x: value)


def linear_state_program(alpha: PAdicValue, const: PAdicValue | None = None) -> Program:
    c = const if const is not None else PAdicValue.zero(alpha.p, alpha.n)
    if c.is_zero:
        fn = lambda t, x: alpha * x
    else:
        fn = lambda t, x: alpha * x + c
    return Program(f"linear({alpha.qp_str()})", fn, lipschitz=alpha.norm())


def linear_time_program(kappa: PAdicValue) -> Program:
    return Program(f"drift_t({kappa.qp_str()})", lambda t, x: kappa * t)


def polynomial_program(coeffs: tuple[PAdicValue, ...], lipschitz: float) -> Program:
    def fn(t, x):
        acc = PAdicValue.zero(x.p, x.n)
        power = PAdicValue.one(x.p, x.n)
        for c in coeffs:
            if not c.is_zero:
                acc = acc + c * power
            power = power * x
        return acc
    return Program("polynomial", fn, lipschitz=lipschitz)


def locally_constant_program(ball: BallSpec, table: tuple[PAdicValue, ...]) -> Program:
    """Value chosen by the leading digit of t - center (constant on the p
    leading-digit children of the ball)."""
    p = ball.p
    r = ball.radius_exp

    def fn(t, x):
        off = (t - ball.center).scale_pow(r)
        d = 0 if off.is_zero or off.v > 0 else off.m % p
        return table[d]

    return Program("locally_constant", fn)


@dataclass(frozen=True)
class FamilyTerm:
    """One mixed-power term of the generalized equation: the chain sum of
    ``prog(t_j, x_j) * dt**(b+m-l) * a_slot(t_j, x_j)**(m-l)
      * (e_slot(t_j, x_j) * dw_j)**l``.

    Slot programs default to the problem's drift/diffusion; the plain
    drift term is (b, m, l) = (1, 0, 0) and the plain diffusion term is
    (0, 1, 1) with a constant-one diffusion slot.
    """

    b: int
    m: int
    l: int
    prog: Program
    a_slot: Program | None = None
    e_slot: Program | None = None
    declared_norm: float = 1.0

    def __post_init__(self):
        if self.l > self.m or min(self.b, self.m, self.l) < 0:
            raise ValueError("index")


@dataclass(frozen=True)
class SDEProblem:
    """A stochastic antiderivational equation on the grid of a ball."""

    ball: BallSpec
    depth: int
    x0: PAdicValue
    drift: Program
    diffusion: Program
    family: tuple[FamilyTerm, ...] = ()

    def __post_init__(self):
        if self.family:
            sup = {}
            for term in self.family:
                order = term.b + term.m
                sup[order] = max(sup.get(order, 0.0), term.declared_norm)
            orders = sorted(sup)
            for a, b in zip(orders, orders[1:]):
                if sup[b] > sup[a] + 1e-15:
                    raise ValueError("decay")

    def validate_lipschitz(self, samples: int = 64, seed: int = 0) -> float:
        """Advisory check: largest sampled difference quotient of the
        coefficients against the declared constant."""
        from .measure import RandomStream
        stream = RandomStream(seed)
        p, n = self.ball.p, self.ball.n
        worst = 0.0
        for _ in range(samples):
            t = self.ball.point(stream.below(self.ball.grid_size(self.depth)),
                                self.depth)
            x = PAdicValue(p, n, stream.below(3), 1 + stream.below(p - 1))
            y = x + PAdicValue(p, n, stream.below(3) + 1, 1 + stream.below(p - 1))
            gap = (x - y).norm()
            if gap == 0.0:
                continue
            for prog in (self.drift, self.diffusion):
                if prog.functional:
                    continue
                quot = (prog(t, x) - prog(t, y)).norm() / gap
                worst = max(worst, quot)
        return worst


@dataclass(frozen=True)
class SDESolution:
    """A solved path equation: the solution grid plus convergence data.

    ``iterations`` counts every sweep, the final unchanged one included;
    ``subdivisions`` is always empty and is kept for report readers.
    """

    values: GridFunction
    iterations: int
    defect_trace: tuple[float, ...]
    contraction: dict
    residual: float
    subdivisions: tuple[str, ...]

    def __getitem__(self, t: PAdicValue) -> PAdicValue:
        return self.values[t]


def _node_terms(family, drift: Program, diffusion: Program, t: PAdicValue,
                x: PAdicValue, state) -> list:
    """Evaluate the coefficient programs once at a node: the exponents
    (dt, a-slot, e*dw) and the program, a-slot and e-slot cells of every
    family term with a nonzero program value."""
    pieces = []
    for ft in family:
        pv = cell_of(ft.prog(t, x, state))
        av = cell_of((ft.a_slot or drift)(t, x, state)) \
            if ft.m - ft.l else None
        ev = cell_of((ft.e_slot or diffusion)(t, x, state)) \
            if ft.l else None
        if pv[0]:
            pieces.append((ft.b + ft.m - ft.l, ft.m - ft.l, ft.l, pv, av, ev))
    return pieces


def solve_picard(problem: SDEProblem, w: WienerPath,
                 max_iter: int | None = None,
                 initial: tuple | None = None) -> SDESolution:
    """Solve the drift/diffusion equation along one sampled path.

    Each sweep is one level-order pass over the digit tree; sweeps repeat
    from the constant initial guess (or a supplied one) until a sweep
    changes no value, at most ``max_iter`` of them (default n * p).  The
    last sweep is the Picard map applied to the delivered solution, so its
    defect, exactly zero, is the reported residual.  Pointwise programs
    take two sweeps whatever the start; functional programs receive the
    previous sweep's iterate as their state and may take more.
    """
    ball, depth = problem.ball, problem.depth
    wg = w.values
    if wg.ball != ball or wg.depth != depth:
        raise ValueError("grid mismatch")
    p, n, r = ball.p, ball.n, ball.radius_exp
    size = ball.grid_size(depth)
    points = GridFunction.coordinate(ball, depth).values
    wcells = tuple(cell_of(v) for v in wg.values)
    x0cell = cell_of(problem.x0)
    family = problem.family or picard_as_family(problem).family
    root = cell_round(p, n, x0cell)
    cur = list(initial) if initial is not None else [problem.x0] * size
    cur[0] = root
    drift, diffusion = problem.drift, problem.diffusion

    def children(level, j, node, kids):
        acc, x = node
        pieces = _node_terms(family, drift, diffusion, points[j], x, state)
        exp = level - r
        out = []
        for d, jn in enumerate(kids, 1):
            dw = cell_sub(p, wcells[jn], wcells[j])
            cell = cell_add(p, acc, _edge_cell(p, pieces, (d, exp), dw))
            out.append((cell, cell_round(p, n, cell_add(p, x0cell, cell))))
        return out

    trace: list[float] = []
    for _ in range(max_iter if max_iter is not None else n * p):
        state = cur     # functional programs read the previous iterate
        cur = [x for _, x in _tree_scan(p, r + depth, (ZERO_CELL, root),
                                        children)]
        trace.append(max(((a - b).norm() for a, b in zip(cur, state)
                          if a != b), default=0.0))
        if trace[-1] == 0.0:
            break
    else:
        raise ValueError("Picard iteration did not stabilize")
    ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 0]
    grid = GridFunction(ball, depth, tuple(cur))
    return SDESolution(values=grid, iterations=len(trace),
                       defect_trace=tuple(trace),
                       contraction={"ball[level=0,index=0]":
                                    max(ratios, default=0.0)},
                       residual=trace[-1], subdivisions=())


def solve_general(problem: SDEProblem, w: WienerPath,
                  max_iter: int | None = None,
                  initial: tuple | None = None) -> SDESolution:
    """Solve the generalized finite-family equation; a single-term family
    with (b, m, l) = (1, 0, 0) or (0, 1, 1) reproduces solve_picard
    bit-exactly."""
    if not problem.family:
        raise ValueError("term family required")
    return solve_picard(problem, w, max_iter=max_iter, initial=initial)


def picard_as_family(problem: SDEProblem) -> SDEProblem:
    """The drift/diffusion problem rewritten as a two-term family; the
    diffusion slot is the constant one so the diffusion term reduces to
    the plain path antiderivation."""
    one = constant_program(PAdicValue.one(problem.ball.p, problem.ball.n))
    fam = (
        FamilyTerm(1, 0, 0, problem.drift, declared_norm=1.0),
        FamilyTerm(0, 1, 1, problem.diffusion, e_slot=one, declared_norm=1.0),
    )
    return SDEProblem(ball=problem.ball, depth=problem.depth, x0=problem.x0,
                      drift=problem.drift, diffusion=problem.diffusion,
                      family=fam)


# -- ensemble diagnostics --------------------------------------------------------


def ensemble_paths(kind: str, ball: BallSpec, depth: int, q: float,
                   ensemble: MonteCarloEnsemble, betas=None, zetas=None):
    """One path per ensemble sample, derived-seed reproducible."""
    from .measure import derive_seed
    return [wiener_path(kind, ball, depth, q,
                        seed=derive_seed(ensemble.master_seed, i),
                        betas=betas, zetas=zetas)
            for i in range(ensemble.size)]


@dataclass(frozen=True)
class LevelRow:
    radius_level: int
    stat: float
    bound: float
    ok: bool


def _level_profile(values_per_path, points, center, s: float):
    """Ensemble mean of |value|**s grouped by radius level |t - t0|."""
    by_level: dict[int, list[int]] = {}
    for k in range(1, len(points)):
        by_level.setdefault((points[k] - center).v, []).append(k)
    means: dict[int, float] = {}
    for lev, idxs in by_level.items():
        acc = 0.0
        for vals in values_per_path:
            for k in idxs:
                acc += vals[k].norm() ** s
        means[lev] = acc / (len(idxs) * len(values_per_path))
    return means


def _level_rows(means: dict, base: float, p: int, c1: float,
                c2: float) -> list[LevelRow]:
    """One row per radius level, innermost first: the sup of the level
    means at or inside that radius against max(base, radius (C1 + C2 stat))."""
    rows = []
    for lev in sorted(means, reverse=True):
        stat = max(means[lev2] for lev2 in means if lev2 >= lev)
        radius = float(p) ** (-lev)
        bound = max(base, radius * (c1 + c2 * stat))
        rows.append(LevelRow(lev, stat, bound, stat <= bound + 1e-12))
    return rows


def moment_diagnostic(problem: SDEProblem, paths, s: int,
                      c1: float, c2: float) -> list[LevelRow]:
    """Empirical moment inequality report.

    For each radius level |t - t0| = p**(-j) the statistic is the sup over
    levels >= that radius of the ensemble mean of the s-th norm power of
    the solution; the bound is max(|xi0|**s, |t - t0| (C1 + C2 stat)) with
    the supplied constants.
    """
    sols = [solve_picard(problem, w) for w in paths]
    ball = problem.ball
    pts = GridFunction.coordinate(ball, problem.depth).values
    means = _level_profile([sol.values.values for sol in sols], pts,
                           ball.center, s)
    return _level_rows(means, problem.x0.norm() ** s, ball.p, c1, c2)


def stability_diagnostic(problem: SDEProblem, x0_a: PAdicValue,
                         x0_b: PAdicValue, paths, s: int,
                         c1: float, c2: float) -> list[LevelRow]:
    """Coupled two-solution stability report on common paths.

    Equal initial values give the identically zero gap (unique fixed point
    path by path); otherwise the gap statistic is checked against
    max(|xi0_a - xi0_b|**s, |t - t0| (C1 + C2 stat)).
    """
    prob_a = replace(problem, x0=x0_a)
    prob_b = replace(problem, x0=x0_b)
    gaps = []
    for w in paths:
        sa = solve_picard(prob_a, w)
        sb = solve_picard(prob_b, w)
        gaps.append(tuple(a - b for a, b in
                          zip(sa.values.values, sb.values.values)))
    ball = problem.ball
    pts = GridFunction.coordinate(ball, problem.depth).values
    means = _level_profile(gaps, pts, ball.center, s)
    return _level_rows(means, (x0_a - x0_b).norm() ** s, ball.p, c1, c2)
