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
serialization boundary.  A ``Matrix`` is a tuple of ``Fraction`` rows, but
its products, inverses and tree steps are computed as integer rows over
one common denominator and converted back once, so no ``Fraction`` is
renormalized inside the arithmetic and the results stay canonical.  The
tree pass, ``cocycle_holds`` and ``identity_holds`` make no ``Fraction``;
generator values, ``exact``, the residuals (``_chain_delta``),
``mat_norm``, ``matrix``'s rounding and ``scalar_flow`` still do.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .antider import GridFunction, _tree_scan, antider_powers_cell, cell_round
from .padic import BallSpec, PAdicValue, _exp_series, _pow, _vp
from .sde import Program, SDEProblem, linear_state_program, solve_picard

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


# The integer form of a matrix is (rows of int, den > 0): the matrix is
# rows / den.  Matrix arithmetic runs on it, so no Fraction renormalizes
# after each + and *; one Fraction(x, den) per entry converts back.
IntRows = list[list[int]]


def _int_form(a: Matrix) -> tuple[IntRows, int]:
    """Integer rows of ``a`` over the lcm of its entries' denominators."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in a], den


def _from_int_form(rows: IntRows, den: int) -> Matrix:
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def _int_mul(a: IntRows, b: IntRows) -> IntRows:
    bt = tuple(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (an, ad), (bn, bd) = _int_form(a), _int_form(b)
    return _from_int_form(_int_mul(an, bn), ad * bd)


def _int_inv(rows: IntRows, den: int) -> tuple[IntRows, int]:
    """Integer form of ``(rows / den)**-1`` by fraction-free (Bareiss)
    Gauss-Jordan elimination.  Every division is exact; the left block ends
    as ``delta I`` and the right block as ``delta rows**-1``, where delta is
    the last pivot (+-det of the rows), so the inverse is
    ``den right / delta``, returned with ``delta > 0``."""
    d = len(rows)
    work = [row + [int(i == j) for j in range(d)]
            for i, row in enumerate(rows)]
    prev = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular operator matrix")
        work[col], work[pivot] = work[pivot], work[col]
        prow = work[col]
        pv = prow[col]
        for r in range(d):
            if r != col:
                f = work[r][col]
                work[r] = [(pv * x - f * y) // prev
                           for x, y in zip(work[r], prow)]
        prev = pv
    if prev < 0:
        den, prev = -den, -prev
    return [[den * x for x in row[d:]] for row in work], prev


def mat_inv(a: Matrix) -> Matrix:
    """Exact inverse; raises ZeroDivisionError on a singular matrix."""
    return _from_int_form(*_int_inv(*_int_form(a)))


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _frac_norm(x: Fraction, p: int) -> float:
    if x == 0:
        return 0.0
    return float(p) ** (_vp(x.denominator, p) - _vp(x.numerator, p))


def mat_norm(a: Matrix, p: int) -> float:
    """Operator norm: the max entry norm (sup norm on coordinate space),
    ``p**e`` for the largest ``e = v(den) - v(num)`` over nonzero entries."""
    return max((_frac_norm(x, p) for row in a for x in row), default=0.0)


def mat_round(a: Matrix, p: int, n: int) -> tuple[tuple[PAdicValue, ...], ...]:
    return tuple(tuple(PAdicValue.from_fraction(x, p, n) for x in row)
                 for row in a)


@dataclass(frozen=True)
class GeneratorSpec:
    """A bounded, entrywise-continuous generator family t -> A(t) of exact
    matrices; a check that needs its norm reads it off the values."""

    dim: int
    fn: Callable[[PAdicValue], Matrix]

    @classmethod
    def constant(cls, matrix: Matrix) -> "GeneratorSpec":
        return cls(dim=len(matrix), fn=lambda t: matrix)

    def __call__(self, t: PAdicValue) -> Matrix:
        return self.fn(t)


class EvolutionOperator:
    """A two-parameter family U(t, s) of d x d operator matrices on the
    grid of a ball, with U(t, t) = I exactly.

    ``grid`` is the coordinate function of the grid (its values are the
    grid points); ``matrix(ti, si)`` returns working-precision entries;
    the exact rational entries drive the identity checks.  Each transfer
    W(t) and each cached inverse W(s)**-1 is kept in integer form
    ``(rows, den)``, so ``exact`` makes one integer product and one
    ``Fraction`` per entry of its result, and ``cocycle_holds`` none.  A
    grid index outside ``[0, size)`` raises ValueError.
    """

    def __init__(self, grid: GridFunction, dim: int,
                 transfers: Sequence[tuple[IntRows, int]]):
        self.grid = grid
        self.ball, self.depth = grid.ball, grid.depth
        self.dim = dim
        self.size = grid.size
        self._transfers = transfers     # W(t) per grid index, integer form
        self._inverses: dict[int, tuple[IntRows, int]] = {}
        self._identity = mat_identity(dim)
        self._int_identity = _int_form(self._identity)

    @property
    def p(self) -> int:
        return self.ball.p

    @property
    def n(self) -> int:
        return self.ball.n

    def _inv(self, k: int) -> tuple[IntRows, int]:
        got = self._inverses.get(k)
        if got is None:
            got = self._inverses[k] = _int_inv(*self._transfers[k])
        return got

    def _exact_int(self, ti: int, si: int) -> tuple[IntRows, int]:
        """Integer form of U(t, s) = W(t) W(s)^{-1}; the shared identity
        when ti == si."""
        if not (0 <= ti < self.size and 0 <= si < self.size):
            raise ValueError("grid index out of range")
        if ti == si:
            return self._int_identity
        wn, wd = self._transfers[ti]
        vn, vd = self._inv(si)
        return _int_mul(wn, vn), wd * vd

    def exact(self, ti: int, si: int) -> Matrix:
        """Exact U(t, s) = W(t) W(s)^{-1}."""
        form = self._exact_int(ti, si)
        return self._identity if ti == si else _from_int_form(*form)

    def identity_holds(self) -> bool:
        """U(t, t) = I as the solve gives it (``exact(k, k)`` is a shared
        identity): ``W(center) == I`` and ``W(k) W(k)**-1 == I`` for each
        computed inverse, in integer form (``rows == den I``)."""
        eye = self._int_identity[0]
        forms = [self._transfers[0]] + [
            (_int_mul(self._transfers[k][0], vn), self._transfers[k][1] * vd)
            for k, (vn, vd) in self._inverses.items()]
        return all(rows == [[den * x for x in row] for row in eye]
                   for rows, den in forms)

    def cocycle_holds(self, ti: int, si: int, vi: int) -> bool:
        """Whether U(t, s) U(s, v) == U(t, v) exactly.  With the integer
        forms A / ad, B / bd and C / cd this is ``A B cd == C ad bd``
        entry by entry, the same boolean as the ``Fraction`` comparison."""
        an, ad = self._exact_int(ti, si)
        bn, bd = self._exact_int(si, vi)
        cn, cd = self._exact_int(ti, vi)
        f = ad * bd
        return all(x * cd == y * f
                   for rl, rc in zip(_int_mul(an, bn), cn)
                   for x, y in zip(rl, rc))

    def matrix(self, ti: int, si: int):
        return mat_round(self.exact(ti, si), self.p, self.n)

    def equation_residual(self, ti: int, si: int, a: GeneratorSpec) -> Matrix:
        """Exact residual of the defining equation
        U(t,s) - I - [P_u(A U(., s))(t) - P_u(A U(., s))(s)]."""
        return self._residual(ti, si, lambda j, jn: mat_mul(
            a(self.grid.values[j]), self.exact(j, si)))

    def dual_residual(self, ti: int, si: int, a: GeneratorSpec) -> Matrix:
        """Exact residual of the backward equation with its far-endpoint
        convention: V(t, s_{j+1}) = V(t, s_j) - V(t, s_{j+1}) A(s_j) ds_j
        telescoped along the chain of s (V = U then holds exactly)."""
        return self._residual(ti, si, lambda j, jn: mat_mul(
            self.exact(ti, jn), a(self.grid.values[j])))

    def _residual(self, ti: int, si: int, term) -> Matrix:
        """U(t, s) - I - (the chain sum of ``term`` at t minus at s)."""
        delta = _chain_delta(self.grid, self.dim, ti, si, term)
        return mat_sub(self.exact(ti, si), mat_add(self._identity, delta))


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

    Each node carries W in integer form ``(wn, wd)``.  With ``A = an / ad``
    and the step ``p**(level - r) = un / ud``, the child of digit d is
    ``(wn ad ud + d un (an wn)) / (wd ad ud)``; the operator keeps every
    transfer in that form.
    """
    p, r = ball.p, ball.radius_exp
    grid = GridFunction.coordinate(ball, depth)

    def children(level, j, w, kids):
        wn, wd = w
        an, ad = _int_form(a(grid.values[j]))
        un, ud = ((_pow(p, level - r), 1) if level >= r
                  else (1, _pow(p, r - level)))
        keep = ad * ud
        base = [[keep * x for x in row] for row in wn]
        aw = _int_mul(an, wn)
        return [([[x + d * un * y for x, y in zip(rb, ra)]
                  for rb, ra in zip(base, aw)], wd * keep)
                for d in range(1, p)]

    ident = [[int(i == j) for j in range(a.dim)] for i in range(a.dim)]
    transfers = _tree_scan(p, r + depth, (ident, 1), children)
    return EvolutionOperator(grid, a.dim, transfers)


class ExpEvolution:
    """The family EXP((t - s) A) for a constant generator, computed by
    ``padic._exp_series``, the one copy of the exponential series, on A
    rounded once to working precision.  Valid on the convergence domain
    |(t - s) A| < p**(-1/(p-1)); outside it ``matrix`` raises ValueError
    unless the series ends within dim terms, as for a nilpotent A."""

    def __init__(self, a_const: Matrix, ball: BallSpec, depth: int):
        self.a = a_const
        self.ball = ball
        self.depth = depth
        self.dim = len(a_const)
        self._a_p = mat_round(a_const, ball.p, ball.n)

    def matrix(self, ti: int, si: int):
        z = self.ball.point(ti, self.depth) - self.ball.point(si, self.depth)
        return _exp_series(z, self._a_p)


# -- generating operator ---------------------------------------------------------


def _radial_limit(grid: GridFunction, ti: int, quotient, error: str):
    """The radial quotient ``quotient(k, ti + p**(radius_exp + k))`` at the
    first depth k >= 1 where it agrees with depth k - 1's to one guard
    digit, entry by entry (a quotient is a tuple of rows of values); raises
    ValueError(error) when the grid ends first."""
    p, n, r = grid.p, grid.n, grid.ball.radius_exp
    prev = None
    for k in range(grid.levels):
        tni = ti + _pow(p, r + k)
        if tni >= grid.size:
            break
        quot = quotient(k, tni)
        if prev is not None and all(
                a.agrees_abs(b, n - k - 1)
                for ra, rb in zip(prev, quot) for a, b in zip(ra, rb)):
            return quot
        prev = quot
    raise ValueError(error)


def generating_operator(u: EvolutionOperator, ti: int):
    """Forward radial difference quotient (U(t + p**k, t) - I) / p**k,
    deepened until two successive depths agree to a guard digit.

    Recovers the generator of a solved family; raises when the quotients
    fail to stabilize before the precision window closes.
    """
    p, n = u.p, u.n

    def quotient(k, tni):
        return tuple(tuple(((x - (PAdicValue.one(p, n) if i == jj else
                                  PAdicValue.zero(p, n))).scale_pow(-k))
                           for jj, x in enumerate(row))
                     for i, row in enumerate(u.matrix(tni, ti)))

    return _radial_limit(u.grid, ti, quotient, "no limit at precision")


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
    if not pairs:
        raise ValueError("pairs: need at least one (ti, si) pair")
    p = ball.p
    radius = float(p) ** ball.radius_exp
    u = solve_evolution(a, ball, depth)
    ab = GeneratorSpec(dim=a.dim, fn=lambda t: mat_add(a(t), b(t)))
    ut = solve_evolution(ab, ball, depth)
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
    met = mcr < 1.0
    ub = m_const / (1.0 - mcr) if met else None
    return PerturbationReport(gap, bound, gap <= bound + 1e-12, residual,
                              ub, sup_ut <= ub + 1e-12 if met else None, met)


# -- generator series for transformed processes ------------------------------------


def path_derivative(w: GridFunction, ti: int) -> PAdicValue:
    """Radial difference quotient (w(t + p**k) - w(t)) / p**k, deepened
    until two successive depths agree to a guard digit; raises when the
    quotients never stabilize (generic sampled paths are not C1)."""
    return _radial_limit(w, ti, lambda k, tni: (
        ((w.values[tni] - w.values[ti]).scale_pow(-k),),),
        "path not C1 at precision")[0][0]


def generator_series(f_derivs, a_prog: Program, e_prog: Program,
                     w: GridFunction, xi: GridFunction, ti: int,
                     m_max: int) -> PAdicValue:
    """The displayed generator series of the transformed process
    eta = f(t, xi(t)): first-order terms f_t + f_x a + f_x e w' plus the
    mixed-power corrections up to total order m_max, each evaluated with
    the single-sum antiderivation convention.

    ``f_derivs[(b, m)]`` is the program for the (b, m)-th mixed partial
    derivative of f evaluated pointwise at (t, xi(t)).  The path
    derivative w' is the stabilized radial quotient; supply a C1 path.
    """
    ball, depth = xi.ball, xi.depth
    p, n = xi.p, xi.n
    pts = GridFunction.coordinate(ball, depth).values

    def on_grid(value) -> GridFunction:
        """The grid function of ``value(t, xi(t))``."""
        return GridFunction(ball, depth, tuple(map(value, pts, xi.values)))

    a_grid = on_grid(lambda t, x: a_prog(t, x, xi.values))
    e_grid = on_grid(lambda t, x: e_prog(t, x, xi.values))
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
            wprime = path_derivative(w, ti)
            total = total + fx_t * e_t * wprime
    for (b, m), _prog in sorted(f_derivs.items()):
        order = b + m
        if order < 2 or order > m_max:
            continue
        dgrid = on_grid(f_derivs[(b, m)])
        inv_fact = PAdicValue.from_rational(1, math.factorial(order), p, n)
        for l in range(m + 1):
            comb = math.comb(order, m) * math.comb(m, l)
            du = b + m - l
            if du:
                cell = antider_powers_cell(dgrid, a_grid, e_grid, w,
                                           du - 1, m - l, l, ti)
                piece = cell_round(p, n, cell)
                coef = PAdicValue.from_int(comb * du, p, n)
                total = total + inv_fact * coef * piece
            if l and not e_t.is_zero:
                cell = antider_powers_cell(dgrid, a_grid, e_grid, w,
                                           du, m - l, l - 1, ti)
                piece = cell_round(p, n, cell)
                if piece.is_zero:
                    continue
                if wprime is None:
                    wprime = path_derivative(w, ti)
                coef = PAdicValue.from_int(comb * l, p, n)
                total = total + inv_fact * coef * piece * e_t * wprime
    return total


# -- multiplicative operator functionals ------------------------------------------


@dataclass(frozen=True)
class MofReport:
    identity_ok: bool
    chain_ok: bool
    moment_constant: float
    representation_ok: bool | None


def scalar_flow(alpha: PAdicValue, beta: PAdicValue,
                w: GridFunction) -> tuple[Fraction, ...]:
    """Exact multiplicative functional of the scalar linear equation
    d xi = alpha xi du + beta xi dw: the chain product of
    (1 + alpha dt_j + beta dw_j) per grid point."""
    p = w.p
    af, bf = alpha.as_fraction(), beta.as_fraction()
    wf = [v.as_fraction() for v in w.values]

    def children(level, j, acc, kids):
        unit = Fraction(p) ** w.step_exponent(level)
        return [acc * (1 + af * d * unit + bf * (wf[jn] - wf[j]))
                for d, jn in enumerate(kids, 1)]

    return tuple(_tree_scan(p, w.levels, Fraction(1), children))


def mof_check(alpha: PAdicValue, beta: PAdicValue, paths, q: float,
              initial_values=()) -> MofReport:
    """Check the multiplicative-functional axioms for the scalar linear
    problem and, when initial values are supplied, the representation of
    the Picard solution as the functional applied to the initial value.
    One flow per path serves every check.  ``chain_ok`` checks the flow's
    chain equation on every tree edge j -> jn of digit d at step exponent
    e: ``flow[jn] == flow[j] * (1 + alpha d p**e + beta (w[jn] - w[j]))``.
    The moment constant is the largest grid mean of |flow|**q over the
    paths: the q-th moment of the functional applied to the value one."""
    p = alpha.p
    n = alpha.n
    af, bf = alpha.as_fraction(), beta.as_fraction()
    identity_ok = True
    chain_ok = True
    worst_c = 0.0
    rep_ok: bool | None = True if initial_values else None
    for w in paths:
        flow = scalar_flow(alpha, beta, w)
        identity_ok &= flow[0] == 1
        wf = [v.as_fraction() for v in w.values]
        size = len(flow)
        for jn in range(1, size):
            *_, (_, j, _, (d, e)) = w.chain_steps(jn)   # the edge into jn
            chain_ok &= flow[jn] == flow[j] * (
                1 + af * d * Fraction(p) ** e + bf * (wf[jn] - wf[j]))
        acc = 0.0
        for k in range(size):
            acc += _frac_norm(flow[k], p) ** q
        worst_c = max(worst_c, acc / size)
        for x0 in initial_values:
            prob = SDEProblem(ball=w.ball, depth=w.depth, x0=x0,
                              drift=linear_state_program(alpha),
                              diffusion=linear_state_program(beta))
            sol = solve_picard(prob, w)
            for k in range(size):
                want = PAdicValue.from_fraction(
                    flow[k] * x0.as_fraction(), p, n)
                if sol.values.values[k] != want:
                    rep_ok = False
    return MofReport(identity_ok, chain_ok, worst_c, rep_ok)
