"""Picard fixed-point solvers for stochastic antiderivational equations,
with moment and stability diagnostics.

The state equation is ``xi(t) = xi0 + P_u a(u, xi) + P_w e(u, xi)`` over the
digit grid of a ball; the generalized form replaces the two terms by a
finite family of mixed-power terms, and the drift/diffusion form is solved
as its two-term family.  The equation is triangular on the digit tree: the
chain sum at t reads the solution only at proper prefixes of t.  A sweep
is therefore one level-order pass in which every node's value is final
before its children are built, run in integers: a child adds its edge
terms to its parent's exact sum and rounds once, and keeps the previous
iterate's value object when the rounding equals it.  For pointwise
coefficients the first sweep delivers the unique fixed point and a
second one, the Picard map applied to the delivered solution, changes
nothing (and builds no value): that zero defect is the reported
residual.  Functional coefficients read the previous sweep's whole
iterate, so for them sweeps repeat until one changes no value.

States are scalars (H = K).  Diagonal systems over K^d can be solved one
coordinate at a time; coupled operator-valued systems live in the evolution
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice, tee
from operator import sub
from typing import Callable

from .antider import (
    GridFunction,
    _check_indices,
    _edge_sums,
    _increments,
    _tree_scan,
    cell_of,
    cell_round,
)
from .measure import MonteCarloEnsemble, derive_seed, wiener_path
from .padic import BallSpec, PAdicValue, _vp


@dataclass(frozen=True)
class Program:
    """A coefficient program over (grid point, state value).

    A ``functional`` program receives the whole previous iterate (the
    state as an element of the continuous-function space) as a third
    argument; pointwise programs are the common special case.  A program
    must be a pure function of ``(t, x[, state])``: ``solve_picard``
    hands a solution that read no path increment on to the next path
    unsolved, which is valid only if no call can answer differently.
    """

    fn: Callable
    functional: bool = False

    def __call__(self, t: PAdicValue, x: PAdicValue, state=None) -> PAdicValue:
        if self.functional:
            return self.fn(t, x, state)
        return self.fn(t, x)


def functional_program(fn) -> Program:
    """A coefficient depending on the whole current iterate; fn receives
    (t, x, values) with values the previous iterate over the grid."""
    return Program(fn, functional=True)


def zero_program(p: int, n: int) -> Program:
    z = PAdicValue.zero(p, n)
    return Program(lambda t, x: z)


def constant_program(value: PAdicValue) -> Program:
    return Program(lambda t, x: value)


# the unit slot: one at every node.  ``_node_terms`` passes it on to
# ``_edge_sums`` as None, the kernel's unit, without calling it
UNIT_SLOT = Program(lambda t, x: PAdicValue.one(t.p, t.n))


def linear_state_program(alpha: PAdicValue) -> Program:
    return Program(lambda t, x: alpha * x)


def polynomial_program(coeffs: tuple[PAdicValue, ...]) -> Program:
    def fn(t, x):
        acc = PAdicValue.zero(x.p, x.n)
        power = PAdicValue.one(x.p, x.n)
        for c in coeffs:
            if not c.is_zero:
                acc = acc + c * power
            power = power * x
        return acc
    return Program(fn)


def locally_constant_program(ball: BallSpec, table: tuple[PAdicValue, ...]) -> Program:
    """Value chosen by the leading digit of t - center (constant on the p
    leading-digit children of the ball)."""
    p = ball.p
    r = ball.radius_exp

    def fn(t, x):
        off = (t - ball.center).scale_pow(r)
        d = 0 if off.is_zero or off.v > 0 else off.m % p
        return table[d]

    return Program(fn)


@dataclass(frozen=True)
class FamilyTerm:
    """One mixed-power term of the generalized equation: the chain sum of
    ``prog(t_j, x_j) * dt**(b+m-l) * a_slot(t_j, x_j)**(m-l)
      * (e_slot(t_j, x_j) * dw_j)**l``.

    Slot programs default to the problem's drift/diffusion; the plain
    drift term is (b, m, l) = (1, 0, 0) and the plain diffusion term is
    (0, 1, 1) with the diffusion slot ``UNIT_SLOT``.  The indices obey
    ``antider._check_indices``: integers, b >= 0, 0 <= l <= m.
    """

    b: int
    m: int
    l: int
    prog: Program
    a_slot: Program | None = None
    e_slot: Program | None = None

    def __post_init__(self):
        _check_indices(self.b, self.m, self.l)


@dataclass(frozen=True)
class SDEProblem:
    """A stochastic antiderivational equation on the grid of a ball."""

    ball: BallSpec
    depth: int
    x0: PAdicValue
    drift: Program
    diffusion: Program
    family: tuple[FamilyTerm, ...] = ()


@dataclass(frozen=True)
class SDESolution:
    """A solved path equation: the solution grid plus convergence data.

    ``iterations`` counts every sweep, the final unchanged one included;
    ``subdivisions`` is always empty and is kept for report readers.
    ``read_path`` says whether a sweep read a path increment; a solution
    that read none is the solution on every path of its grid.
    """

    values: GridFunction
    iterations: int
    defect_trace: tuple[float, ...]
    contraction: dict
    residual: float
    subdivisions: tuple[str, ...]
    read_path: bool

    def __getitem__(self, t: PAdicValue) -> PAdicValue:
        return self.values[t]


def _node_terms(family, drift: Program, diffusion: Program, t: PAdicValue,
                x: PAdicValue, state) -> list:
    """Evaluate the coefficient programs once at a node: the exponents
    (dt, a-slot, e*dw) and the program, a-slot and e-slot values of every
    family term with a nonzero program value.  A term whose program value
    is zero is dropped before its slot programs are called, and the unit
    slot is never called: its value is None."""
    pieces = []
    for ft in family:
        pv = ft.prog(t, x, state)
        if not pv.m:
            continue
        av = (ft.a_slot or drift)(t, x, state) if ft.m - ft.l else None
        ev = (ft.e_slot or diffusion)(t, x, state) \
            if ft.l and ft.e_slot is not UNIT_SLOT else None
        pieces.append((ft.b + ft.m - ft.l, ft.m - ft.l, ft.l, pv, av, ev))
    return pieces


def _defect(p: int, new, old) -> float:
    """The largest ``(a - b).norm()`` over the pairs of new and old values,
    0.0 when no pair differs, read off the (v, m) integers: the norm of
    the difference with the lowest valuation.  A kept value (a is b) is
    skipped unread."""
    low = None
    for a, b in zip(new, old):
        if a is b:
            continue
        am, bm = a.m, b.m
        if not bm:
            if not am:
                continue
            v = a.v
        elif not am:
            v = b.v
        elif a.v != b.v:
            v = min(a.v, b.v)
        elif am != bm:
            v = a.v + _vp(am - bm, p)
        else:
            continue
        if low is None or v < low:
            low = v
    return 0.0 if low is None else PAdicValue(p, 1, low, 1).norm()


def solve_picard(problem: SDEProblem, w: GridFunction,
                 max_iter: int | None = None,
                 initial: tuple | None = None,
                 prior: SDESolution | None = None) -> SDESolution:
    """Solve the drift/diffusion equation along one sampled path.

    Each sweep is one level-order pass over the digit tree; sweeps repeat
    from the constant initial guess (or one supplied value per grid point)
    until a sweep changes no value, at most ``max_iter`` of them (default
    n * p).  The last sweep is the Picard map applied to the delivered
    solution, so its defect, exactly zero, is the reported residual.
    Pointwise programs take two sweeps whatever the start; functional
    programs receive the previous sweep's iterate as their state and may
    take more.  Only the interior nodes, those with children, are read
    again: they are the indices below ``p**(radius_exp + depth - 1)``,
    exactly the grid one level up, so the sweep reads its points from that
    coarser grid, and an interior node's exact sum, the cell of x0 plus
    its chain sum, lives in two integer lists (numerators and p-exponents)
    of that grid's size.  A leaf's sum is rounded and dropped; the tree
    scan carries only the rounded values.  The path's ``_increments``
    table is built once per solve, when a term first reads it.

    ``prior`` may be a solution of the same problem, start and sweep
    limit on another path of the same grid.  If it read no path increment
    it is returned as it is, with its own ``iterations``: until a term
    reads an increment a sweep never touches the path, so every path
    gives the same sweeps, provided the programs are pure.  A prior that
    read its path is ignored.
    """
    ball, depth = problem.ball, problem.depth
    if w.ball != ball or w.depth != depth:
        raise ValueError("grid mismatch")
    if prior is not None and not prior.read_path:
        if prior.values.ball != ball or prior.values.depth != depth:
            raise ValueError("prior grid mismatch")
        return prior
    p, n, r = ball.p, ball.n, ball.radius_exp
    size = ball.grid_size(depth)
    if initial is not None and (len(initial) != size or
                                any(x.p != p for x in initial)):
        raise ValueError(f"initial must hold {size} values at p={p}")
    # the interior grid; a one-point grid has no interior node
    points = GridFunction.coordinate(ball, depth - 1).values \
        if size > 1 else ()
    family = problem.family or picard_as_family(problem).family
    root = cell_round(p, n, cell_of(problem.x0))
    cur = list(initial) if initial is not None else [problem.x0] * size
    cur[0] = root
    # the exact sums of the interior nodes (of the root alone on a
    # one-point grid); the root's is x0's cell
    interior = len(points) or 1
    nums, exps = [0] * interior, [0] * interior
    nums[0], exps[0] = cell_of(problem.x0)
    drift, diffusion = problem.drift, problem.diffusion
    digits, pn = range(1, p), p**n
    dws = None

    def children(level, j, node, kids):
        nonlocal dws
        pieces = _node_terms(family, drift, diffusion, points[j], node, state)
        if dws is None and any(piece[2] for piece in pieces):
            dws = _increments(w)
        sums = _edge_sums(p, (nums[j], exps[j]), pieces, level - r, digits,
                          dws and dws[kids.start:kids.stop:kids.step])
        inner = kids.stop <= interior     # the kids have children too
        out = []
        for jn, (m, v) in zip(kids, sums):
            if inner:
                nums[jn], exps[jn] = m, v  # exact; rounded below to (v, m)
            if m:
                while not m % p:
                    m //= p
                    v += 1
                m %= pn
            else:
                v = 0
            old = state[jn]
            if old.m != m or old.v != v or old.n != n:
                old = PAdicValue(p, n, v, m)
            out.append(old)
        return out

    trace: list[float] = []
    for _ in range(max_iter if max_iter is not None else n * p):
        state = cur     # functional programs read the previous iterate
        cur = _tree_scan(p, r + depth, root, children)
        trace.append(_defect(p, cur, state))
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
                       residual=trace[-1], subdivisions=(),
                       read_path=dws is not None)


def picard_as_family(problem: SDEProblem) -> SDEProblem:
    """The drift/diffusion problem rewritten as a two-term family; the
    diffusion slot is ``UNIT_SLOT`` so the diffusion term reduces to the
    plain path antiderivation."""
    fam = (
        FamilyTerm(1, 0, 0, problem.drift),
        FamilyTerm(0, 1, 1, problem.diffusion, e_slot=UNIT_SLOT),
    )
    return SDEProblem(ball=problem.ball, depth=problem.depth, x0=problem.x0,
                      drift=problem.drift, diffusion=problem.diffusion,
                      family=fam)


# -- ensemble diagnostics --------------------------------------------------------


def ensemble_paths(kind: str, ball: BallSpec, depth: int, q: float,
                   ensemble: MonteCarloEnsemble, *, betas=None, zetas=None):
    """One path per ensemble sample, derived-seed reproducible."""
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


def _level_profile(rows, points, center, s: float):
    """Ensemble mean of |value|**s grouped by radius level |t - t0|, from
    one row of values per path, each read once into a running sum per
    level (path by path, grid index rising) and dropped."""
    levels = [(points[k] - center).v for k in range(1, len(points))]
    sums = dict.fromkeys(levels, 0.0)
    paths = 0
    for vals in rows:
        paths += 1
        for lev, x in zip(levels, islice(vals, 1, None)):
            sums[lev] += x.norm() ** s
    if not paths:
        raise ValueError("a level profile needs at least one path")
    return {lev: acc / (levels.count(lev) * paths)
            for lev, acc in sums.items()}


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


def _path_rows(problem: SDEProblem, paths):
    """The solution values along each path in turn; each solve gets the
    previous path's solution as its prior, so an equation that reads no
    path increment is solved once."""
    sol = None
    for w in paths:
        sol = solve_picard(problem, w, prior=sol)
        yield sol.values.values


def moment_diagnostic(problem: SDEProblem, paths, s: int,
                      c1: float, c2: float) -> list[LevelRow]:
    """Empirical moment inequality report.

    For each radius level |t - t0| = p**(-j) the statistic is the sup over
    levels >= that radius of the ensemble mean of the s-th norm power of
    the solution; the bound is max(|xi0|**s, |t - t0| (C1 + C2 stat)) with
    the supplied constants.
    """
    ball = problem.ball
    pts = GridFunction.coordinate(ball, problem.depth).values
    rows = _path_rows(problem, paths)
    means = _level_profile(rows, pts, ball.center, s)
    return _level_rows(means, problem.x0.norm() ** s, ball.p, c1, c2)


def stability_diagnostic(problem: SDEProblem, x0_a: PAdicValue,
                         x0_b: PAdicValue, paths, s: int,
                         c1: float, c2: float) -> list[LevelRow]:
    """Coupled two-solution stability report on common paths.

    Equal initial values give the identically zero gap (unique fixed point
    path by path); otherwise the gap statistic is checked against
    max(|xi0_a - xi0_b|**s, |t - t0| (C1 + C2 stat)).
    """
    paths_a, paths_b = tee(paths)
    gaps = (map(sub, a, b) for a, b in zip(
        _path_rows(replace(problem, x0=x0_a), paths_a),
        _path_rows(replace(problem, x0=x0_b), paths_b)))
    ball = problem.ball
    pts = GridFunction.coordinate(ball, problem.depth).values
    means = _level_profile(gaps, pts, ball.center, s)
    return _level_rows(means, (x0_a - x0_b).norm() ** s, ball.p, c1, c2)
