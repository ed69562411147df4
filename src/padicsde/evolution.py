"""Evolution operators and multiplicative operator functionals.

The operator equation ``U(t, s) = I + P_u[A(u) U(u, s)]`` between the chain
sums at t and at s is triangular on the grid: the chain sum at t reads the
solution only at strictly shallower prefixes, so one level-order pass over
the digit tree from ``W(center) = I`` solves it exactly.  The solved family
is the ordered digit-chain product
``W(t) = prod (I + A(t_j) dt_j)`` composed as ``U(t, s) = W(t) W(s)^{-1}``;
entries are kept as exact rationals internally so the defining equation,
the two-sided cocycle law and the perturbation identity all check to
literal zeros, and are rounded to working precision at the accessor and
serialization boundary.

Discrete endpoint conventions, fixed here and in the docs: the dual
(backward) equation evaluates its one-step factor at the far end of each
digit step, which is the unique choice making the dual flow coincide with
the primal one at fixed precision; likewise the perturbation identity
carries the outer flow factor at the step's far node, the form that
telescopes exactly.  The generating operator is recovered by the forward
radial quotient ``(U(t + p^k, t) - I) / p^k`` (the backward orientation
would negate it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .antider import GridFunction, _as_grid, _tree_scan
from .measure import WienerPath
from .padic import BallSpec, PAdicValue, _pow, _vp
from .sde import Program, SDEProblem, solve_picard

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_identity(d: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(d))
                 for i in range(d))


def mat_zero(d: int) -> Matrix:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(d)) for _ in range(d))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_inv(a: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse over the rationals."""
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


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _frac_norm(x: Fraction, p: int) -> float:
    if x == 0:
        return 0.0
    return float(p) ** (_vp(x.denominator, p) - _vp(x.numerator, p))


def mat_norm(a: Matrix, p: int) -> float:
    """Operator norm: the max entry norm (sup norm on coordinate space)."""
    return max((_frac_norm(x, p) for row in a for x in row), default=0.0)


def mat_round(a: Matrix, p: int, n: int) -> tuple[tuple[PAdicValue, ...], ...]:
    return tuple(tuple(PAdicValue.from_fraction(x, p, n) for x in row)
                 for row in a)


def padic_matrix_to_fractions(a) -> Matrix:
    return tuple(tuple(x.as_fraction() for x in row) for row in a)


@dataclass(frozen=True)
class GeneratorSpec:
    """A bounded, entrywise-continuous generator family t -> A(t)."""

    dim: int
    fn: Callable[[PAdicValue], Matrix]
    sup_norm: float

    @classmethod
    def constant(cls, matrix, p: int | None = None) -> "GeneratorSpec":
        if matrix and isinstance(matrix[0][0], PAdicValue):
            p = matrix[0][0].p
            matrix = padic_matrix_to_fractions(matrix)
        if p is None:
            raise ValueError("prime required for a rational matrix")
        sup = mat_norm(matrix, p)
        return cls(dim=len(matrix), fn=lambda t: matrix, sup_norm=sup)

    def __call__(self, t: PAdicValue) -> Matrix:
        return self.fn(t)


class EvolutionOperator:
    """A two-parameter family U(t, s) of d x d operator matrices on the
    grid of a ball, with U(t, t) = I exactly.

    ``grid`` is the coordinate function of the grid (its values are the
    grid points); ``matrix(ti, si)`` returns working-precision entries;
    the exact rational entries drive the identity checks.
    """

    def __init__(self, grid: GridFunction, dim: int,
                 transfers: Sequence[Matrix], provenance: str):
        self.grid = grid
        self.ball, self.depth = grid.ball, grid.depth
        self.dim = dim
        self.transfers = tuple(transfers)   # W(t) per grid index
        self._inverses: dict[int, Matrix] = {}
        self.provenance = provenance

    @property
    def p(self) -> int:
        return self.ball.p

    @property
    def n(self) -> int:
        return self.ball.n

    @property
    def size(self) -> int:
        return self.grid.size

    def _inv(self, k: int) -> Matrix:
        got = self._inverses.get(k)
        if got is None:
            got = self._inverses[k] = mat_inv(self.transfers[k])
        return got

    def exact(self, ti: int, si: int) -> Matrix:
        """Exact U(t, s) = W(t) W(s)^{-1}."""
        if ti == si:
            return mat_identity(self.dim)
        return mat_mul(self.transfers[ti], self._inv(si))

    def matrix(self, ti: int, si: int):
        return mat_round(self.exact(ti, si), self.p, self.n)

    def equation_residual(self, ti: int, si: int, a: GeneratorSpec) -> Matrix:
        """Exact residual of the defining equation
        U(t,s) - I - [P_u(A U(., s))(t) - P_u(A U(., s))(s)]."""
        delta = _chain_delta(self.grid, self.dim, ti, si,
                             lambda j, jn: mat_mul(a(self.grid.values[j]),
                                                   self.exact(j, si)))
        return mat_sub(self.exact(ti, si),
                       mat_add(mat_identity(self.dim), delta))

    def dual_residual(self, ti: int, si: int, a: GeneratorSpec) -> Matrix:
        """Exact residual of the backward equation with its far-endpoint
        convention: V(t, s_{j+1}) = V(t, s_j) - V(t, s_{j+1}) A(s_j) ds_j
        telescoped along the chain of s (V = U then holds exactly)."""
        delta = _chain_delta(self.grid, self.dim, ti, si,
                             lambda j, jn: mat_mul(self.exact(ti, jn),
                                                   a(self.grid.values[j])))
        return mat_sub(self.exact(ti, si),
                       mat_add(mat_identity(self.dim), delta))


def _chain_delta(grid: GridFunction, dim: int, ti: int, si: int,
                 term) -> Matrix:
    """Exact sum of ``term(j, jn) * step`` over the digit steps of the
    chain of ti, minus the same sum over the chain of si."""
    p = grid.p
    acc = mat_zero(dim)
    for k, sign in ((ti, 1), (si, -1)):
        for _level, j, jn, (d, e) in grid.chain_steps(k):
            part = mat_scale(term(j, jn), d * Fraction(p) ** e)
            acc = mat_add(acc, part) if sign > 0 else mat_sub(acc, part)
    return acc


def solve_evolution(a: GeneratorSpec, ball: BallSpec,
                    depth: int) -> EvolutionOperator:
    """Solve the operator equation in one forward pass over the digit tree.

    The chain sum at t reads W only at proper prefixes of t, so the
    equation is the recursion ``W(j + d p**l) = W(j) + d p**(l-r) A(t_j)
    W(j)`` from ``W(center) = I``: one level-order pass computes every
    transfer exactly, with one generator call per interior node.  No
    contraction hypothesis is needed at fixed precision.
    """
    p, r = ball.p, ball.radius_exp
    grid = GridFunction.coordinate(ball, depth)

    def children(level, j, wj, kids):
        aw = mat_mul(a(grid.values[j]), wj)
        unit = Fraction(p) ** (level - r)
        return [mat_add(wj, mat_scale(aw, unit * d)) for d in range(1, p)]

    transfers = _tree_scan(p, r + depth, mat_identity(a.dim), children)
    return EvolutionOperator(grid, a.dim, transfers, provenance="solved")


class ExpEvolution:
    """The family EXP((t - s) A) for a constant generator, computed by the
    working-precision exponential series; provenance "exp".  Valid on the
    convergence domain |(t - s) A| < p**(-1/(p-1))."""

    def __init__(self, a_const: Matrix, ball: BallSpec, depth: int):
        self.a = a_const
        self.ball = ball
        self.depth = depth
        self.dim = len(a_const)
        self.provenance = "exp"

    @property
    def size(self) -> int:
        return self.ball.grid_size(self.depth)

    def matrix(self, ti: int, si: int):
        p, n = self.ball.p, self.ball.n
        t = self.ball.point(ti, self.depth)
        s = self.ball.point(si, self.depth)
        z = t - s
        a_p = mat_round(self.a, p, n)
        ident = tuple(tuple(PAdicValue.from_int(1 if i == j else 0, p, n)
                            for j in range(self.dim)) for i in range(self.dim))
        if z.is_zero:
            return ident
        total = ident
        term = ident
        k = 0
        while True:
            k += 1
            # term <- term * (z A) / k
            zk = z / PAdicValue.from_int(k, p, n)
            nxt = []
            for i in range(self.dim):
                row = []
                for j in range(self.dim):
                    acc = PAdicValue.zero(p, n)
                    for l in range(self.dim):
                        acc = acc + term[i][l] * a_p[l][j]
                    row.append(acc * zk)
                nxt.append(tuple(row))
            term = tuple(nxt)
            worst = min((x.v for row in term for x in row if not x.is_zero),
                        default=None)
            if worst is None or worst > n:
                break
            total = tuple(tuple(x + y for x, y in zip(ra, rb))
                          for ra, rb in zip(total, term))
        return total


# -- generating operator ---------------------------------------------------------


def generating_operator(u, ti: int, start_depth: int,
                        guard: int = 1):
    """Forward radial difference quotient (U(t + p**k, t) - I) / p**k,
    deepened until two successive depths agree to a guard digit.

    Recovers the generator of a solved family; raises when the quotients
    fail to stabilize before the precision window closes.
    """
    ball, depth = u.ball, u.depth
    p, n = ball.p, ball.n
    levels = ball.radius_exp + depth
    prev = None
    for k in range(start_depth, levels):
        stride = _pow(p, ball.radius_exp + k)
        tni = ti + stride
        if tni >= u.size:
            break
        quot = tuple(tuple(((x - (PAdicValue.one(p, n) if i == jj else
                                  PAdicValue.zero(p, n))).scale_pow(-k))
                           for jj, x in enumerate(row))
                     for i, row in enumerate(u.matrix(tni, ti)))
        if prev is not None:
            ok = all(a.agrees_abs(b, n - k - guard)
                     for ra, rb in zip(prev, quot) for a, b in zip(ra, rb))
            if ok:
                return quot
        prev = quot
    raise ValueError("no limit at precision")


# -- perturbation -----------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    gap_norm: float
    bound: float
    bound_holds: bool
    identity_residual: float
    uniform_bound: float | None
    uniform_bound_holds: bool | None
    hypothesis_met: bool


def perturbation_check(a: GeneratorSpec, b: GeneratorSpec, ball: BallSpec,
                       depth: int, pairs: Sequence[tuple[int, int]]) -> PerturbationReport:
    """Compare the flows of A and A + B.

    Checks the norm bound ``|U~ - U| <= M M~ sup|B| R`` over the sampled
    pairs, the exact interchange identity (the chain Duhamel form with the
    unperturbed flow taken at each step's far node), and, when the
    smallness hypothesis M C R < 1 holds, the uniform bound
    ``|U~| <= M / (1 - M C R)``.
    """
    p = ball.p
    radius = float(p) ** ball.radius_exp
    u = solve_evolution(a, ball, depth)
    ab = GeneratorSpec(dim=a.dim,
                       fn=lambda t: mat_add(a(t), b(t)),
                       sup_norm=max(a.sup_norm + b.sup_norm, a.sup_norm))
    ut = solve_evolution(ab, ball, depth)
    ut.provenance = "perturbed"
    grid = u.grid.values

    sup_u = max(mat_norm(u.exact(ti, si), p) for ti, si in pairs)
    sup_ut = max(mat_norm(ut.exact(ti, si), p) for ti, si in pairs)
    m_const = 1.0 + sup_u
    mt_const = 1.0 + sup_ut
    sup_b = max(mat_norm(b(grid[k]), p) for k in range(len(grid)))

    gap = max(mat_norm(mat_sub(ut.exact(ti, si), u.exact(ti, si)), p)
              for ti, si in pairs)
    bound = m_const * mt_const * sup_b * radius

    residual = 0.0
    for ti, si in pairs:
        delta = _chain_delta(u.grid, a.dim, ti, si,
                             lambda j, jn: mat_mul(u.exact(ti, jn),
                                                   mat_mul(b(grid[j]),
                                                           ut.exact(j, si))))
        acc = mat_sub(mat_sub(ut.exact(ti, si), u.exact(ti, si)), delta)
        residual = max(residual, mat_norm(acc, p))

    mcr = m_const * sup_b * radius
    if mcr < 1.0:
        ub = m_const / (1.0 - mcr)
        return PerturbationReport(gap, bound, gap <= bound + 1e-12, residual,
                                  ub, sup_ut <= ub + 1e-12, True)
    return PerturbationReport(gap, bound, gap <= bound + 1e-12, residual,
                              None, None, False)


# -- generator series for transformed processes ------------------------------------


def path_derivative(w: GridFunction, ti: int, guard: int = 1) -> PAdicValue:
    """Radial difference quotient (w(t + p**k) - w(t)) / p**k, deepened
    until two successive depths agree to a guard digit; raises when the
    quotients never stabilize (generic sampled paths are not C1)."""
    ball = w.ball
    p, n = w.p, w.n
    prev = None
    for k in range(0, w.levels):
        stride = _pow(p, ball.radius_exp + k)
        tni = ti + stride
        if tni >= w.size:
            break
        quot = (w.values[tni] - w.values[ti]).scale_pow(-k)
        if prev is not None and quot.agrees_abs(prev, n - k - guard):
            return quot
        prev = quot
    raise ValueError("path not C1 at precision")


def generator_series(f_derivs, a_prog: Program, e_prog: Program,
                     w, xi: GridFunction, ti: int, m_max: int) -> PAdicValue:
    """The displayed generator series of the transformed process
    eta = f(t, xi(t)): first-order terms f_t + f_x a + f_x e w' plus the
    mixed-power corrections up to total order m_max, each evaluated with
    the single-sum antiderivation convention.

    ``f_derivs[(b, m)]`` is the program for the (b, m)-th mixed partial
    derivative of f evaluated pointwise at (t, xi(t)).  The path
    derivative w' is the stabilized radial quotient; supply a C1 path.
    """
    from .antider import antider_powers_cell, cell_round

    wg = _as_grid(w)
    ball, depth = xi.ball, xi.depth
    p, n = xi.p, xi.n
    pts = GridFunction.coordinate(ball, depth).values

    def deriv_grid(b: int, m: int) -> GridFunction:
        prog = f_derivs[(b, m)]
        return GridFunction(ball, depth,
                            tuple(prog(pts[k], xi.values[k])
                                  for k in range(len(pts))))

    a_grid = GridFunction(ball, depth,
                          tuple(a_prog(pts[k], xi.values[k], xi.values)
                                for k in range(len(pts))))
    e_grid = GridFunction(ball, depth,
                          tuple(e_prog(pts[k], xi.values[k], xi.values)
                                for k in range(len(pts))))
    t = pts[ti]
    x = xi.values[ti]
    total = PAdicValue.zero(p, n)
    if (1, 0) in f_derivs:
        total = total + f_derivs[(1, 0)](t, x)
    fx = f_derivs.get((0, 1))
    e_t = e_prog(t, x, xi.values)
    wprime = None
    if fx is not None:
        fx_t = fx(t, x)
        total = total + fx_t * a_prog(t, x, xi.values)
        if not e_t.is_zero and not fx_t.is_zero:
            wprime = path_derivative(wg, ti)
            total = total + fx_t * e_t * wprime
    for (b, m), _prog in sorted(f_derivs.items()):
        order = b + m
        if order < 2 or order > m_max:
            continue
        dgrid = deriv_grid(b, m)
        inv_fact = PAdicValue.from_rational(1, math.factorial(order), p, n)
        for l in range(m + 1):
            comb = math.comb(order, m) * math.comb(m, l)
            du = b + m - l
            if du:
                cell = antider_powers_cell(dgrid, a_grid, e_grid, wg,
                                           du - 1, m - l, l, ti)
                piece = cell_round(p, n, cell)
                coef = PAdicValue.from_int(comb * du, p, n)
                total = total + inv_fact * coef * piece
            if l and not e_t.is_zero:
                cell = antider_powers_cell(dgrid, a_grid, e_grid, wg,
                                           du, m - l, l - 1, ti)
                piece = cell_round(p, n, cell)
                if piece.is_zero:
                    continue
                if wprime is None:
                    wprime = path_derivative(wg, ti)
                coef = PAdicValue.from_int(comb * l, p, n)
                total = total + inv_fact * coef * piece * e_t * wprime
    return total


# -- multiplicative operator functionals ------------------------------------------


@dataclass(frozen=True)
class MofReport:
    identity_ok: bool
    cocycle_ok: bool
    moment_constant: float
    representation_ok: bool | None


def scalar_flow(alpha: PAdicValue, beta: PAdicValue, w: WienerPath) -> tuple[Fraction, ...]:
    """Exact multiplicative functional of the scalar linear equation
    d xi = alpha xi du + beta xi dw: the chain product of
    (1 + alpha dt_j + beta dw_j) per grid point."""
    grid = w.values
    p = grid.p
    af, bf = alpha.as_fraction(), beta.as_fraction()
    wf = [v.as_fraction() for v in grid.values]

    def children(level, j, acc, kids):
        unit = Fraction(p) ** grid.step_exponent(level)
        return [acc * (1 + af * d * unit + bf * (wf[jn] - wf[j]))
                for d, jn in enumerate(kids, 1)]

    return tuple(_tree_scan(p, grid.levels, Fraction(1), children))


def mof_check(alpha: PAdicValue, beta: PAdicValue, paths, q: float,
              initial_values=(), eta_probe: PAdicValue | None = None) -> MofReport:
    """Check the multiplicative-functional axioms for the scalar linear
    problem and, when initial values are supplied, the representation of
    the Picard solution as the functional applied to the initial value."""
    p = alpha.p
    n = alpha.n
    identity_ok = True
    cocycle_ok = True
    worst_c = 0.0
    rep_ok: bool | None = None
    for w in paths:
        flow = scalar_flow(alpha, beta, w)
        identity_ok &= flow[0] == 1
        size = len(flow)
        for (ti, si, vi) in ((1, 0, min(2, size - 1)),
                             (size - 1, size // 2, 0)):
            lhs = flow[ti] / flow[si] * (flow[si] / flow[vi])
            cocycle_ok &= lhs == flow[ti] / flow[vi]
        probe = eta_probe if eta_probe is not None else PAdicValue.one(p, n)
        pf = probe.as_fraction()
        acc = 0.0
        for k in range(size):
            acc += _frac_norm(flow[k] * pf, p) ** q
        denom = _frac_norm(pf, p) ** q
        worst_c = max(worst_c, acc / (size * denom) if denom else 0.0)
    if initial_values:
        from .sde import linear_state_program
        rep_ok = True
        ball = paths[0].values.ball
        depth = paths[0].values.depth
        for w in paths:
            flow = scalar_flow(alpha, beta, w)
            for x0 in initial_values:
                prob = SDEProblem(ball=ball, depth=depth, x0=x0,
                                  drift=linear_state_program(alpha),
                                  diffusion=linear_state_program(beta))
                sol = solve_picard(prob, w)
                for k in range(len(flow)):
                    want = PAdicValue.from_fraction(
                        flow[k] * x0.as_fraction(), p, n)
                    if sol.values.values[k] != want:
                        rep_ok = False
    return MofReport(identity_ok, cocycle_ok, worst_c, rep_ok)
