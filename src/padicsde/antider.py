"""Antiderivation operators on digit grids, discrete covariation, and the
integration-by-parts calculus.

A grid function assigns a value to every canonical representative of a ball.
The chain of a grid point is its sequence of digit truncations relative to
the ball center; the antiderivation of an integrand f along the time
variable is the finite ultrametric sum of f at the chain points weighted by
the single-digit steps.  Each such sum is a mixed-power term (b, m, l),
summed by one kernel, ``_edge_sums``, at a point and on the grid: time is
(1, 0, 0), the path (0, 1, 1) with the unit diffusion slot.  All sums here
are evaluated in exact integer cells ``(numerator, p-exponent)`` and
rounded to working precision once, at delivery; identity checks are
evaluated fully exactly, which is why the telescoping residuals below are
exact zeros and not merely small.

Sum conventions, frozen for the whole package: integrands are evaluated at
the near end of a digit step, and in the by-parts identity
``P_X Y = X_t Y_t - X_0 Y_0 - P_Y X - C(X, Y)`` the operator ``P_X Y`` sums
``Y(t_j) * (X(t_{j+1}) - X(t_j))``; the codomain is a commutative ring here
(K or diagonal K^d), so the display order of factors carries no content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .padic import BallSpec, PAdicValue, _pow

# exact value cells: (numerator, exponent) denoting numerator * p**exponent
Cell = tuple[int, int]
ZERO_CELL: Cell = (0, 0)


def cell_of(x: PAdicValue) -> Cell:
    return (x.m, x.v) if x.m else ZERO_CELL


def cell_add(p: int, a: Cell, b: Cell) -> Cell:
    na, ea = a
    nb, eb = b
    if na == 0:
        return b
    if nb == 0:
        return a
    if ea <= eb:
        return (na + nb * _pow(p, eb - ea), ea)
    return (nb + na * _pow(p, ea - eb), eb)


def cell_sub(p: int, a: Cell, b: Cell) -> Cell:
    return cell_add(p, a, (-b[0], b[1]))


def cell_mul(a: Cell, b: Cell) -> Cell:
    if a[0] == 0 or b[0] == 0:
        return ZERO_CELL
    return (a[0] * b[0], a[1] + b[1])


def cell_round(p: int, n: int, a: Cell) -> PAdicValue:
    return PAdicValue._from_cell(p, n, a[0], a[1])


@dataclass(frozen=True)
class GridFunction:
    """A function on the canonical grid of a ball at a given depth.

    ``values[k]`` is the value at the representative ``ball.point(k, depth)``;
    evaluation at a representative is exact index lookup.  Chain levels run
    from 0 (the center) to ``levels = radius_exp + depth``; prefixes of a
    grid index are themselves grid indices, so chain values are lookups too.
    """

    ball: BallSpec
    depth: int
    values: tuple

    def __post_init__(self):
        if self.ball.radius_exp + self.depth > self.ball.n:
            raise ValueError("grid deeper than working precision")
        if len(self.values) != self.size:
            raise ValueError("grid incomplete")

    @property
    def p(self) -> int:
        return self.ball.p

    @property
    def n(self) -> int:
        return self.ball.n

    @property
    def size(self) -> int:
        return self.ball.grid_size(self.depth)

    @property
    def levels(self) -> int:
        return self.ball.radius_exp + self.depth

    def __getitem__(self, t: PAdicValue) -> PAdicValue:
        return self.values[self.ball.index_of(t, self.depth)]

    @classmethod
    def from_callable(cls, ball: BallSpec, depth: int, fn) -> "GridFunction":
        return cls(ball, depth, tuple(fn(ball.point(k, depth))
                                      for k in range(ball.grid_size(depth))))

    @classmethod
    def constant(cls, ball: BallSpec, depth: int, value: PAdicValue) -> "GridFunction":
        return cls(ball, depth, tuple([value] * ball.grid_size(depth)))

    @classmethod
    @lru_cache(maxsize=8)
    def coordinate(cls, ball: BallSpec, depth: int) -> "GridFunction":
        """The identity function t -> t on the grid, built once per
        (ball, depth) and shared: a grid is frozen and holds a tuple."""
        return cls.from_callable(ball, depth, lambda t: t)

    def step_exponent(self, level: int) -> int:
        """p-exponent of the digit step at a chain level."""
        return level - self.ball.radius_exp

    def chain_steps(self, k: int):
        """Yield (level, j, j_next, step_cell) along the chain of index k;
        trivial (digit zero) steps are skipped.  An index outside
        ``0 <= k < size`` raises ValueError on the first step."""
        if not 0 <= k < self.size:
            raise ValueError("grid index out of range")
        p = self.p
        for level in range(self.levels):
            j = k % _pow(p, level)
            d = (k // _pow(p, level)) % p
            if d:
                yield level, j, j + d * _pow(p, level), (d, self.step_exponent(level))


def _tree_scan(p: int, levels: int, root, children) -> list:
    """One level-order pass over the digit tree of a grid of ``p**levels``
    points, in place.

    At chain level l the nonzero-digit children of node j (j < p**l) are
    the indices ``kids = j + d * p**l``, d = 1 .. p-1; the digit-0 child is
    j itself and keeps its value.  ``children(level, j, value, kids)``
    returns the values at ``kids`` in digit order.  Every node is final
    before its children are built, so a chain recursion that reads only
    proper prefixes is solved by this single pass.
    """
    vals = [root] * _pow(p, levels)
    for level in range(levels):
        width = _pow(p, level)
        stop = width * p
        for j in range(width):
            kids = range(j + width, stop, width)
            vals[j + width:stop:width] = children(level, j, vals[j], kids)
    return vals


def _index_for(f: GridFunction, t) -> int:
    if isinstance(t, int):
        return t
    return f.ball.index_of(t, f.depth)


# -- single-point antiderivations (exact sum, one rounding) --------------------


def antider_u(f: GridFunction, t) -> PAdicValue:
    """Time antiderivation of f at a grid point: the chain sum of f times
    the digit steps.  Exact sum, rounded once; empty chain gives zero."""
    cell = antider_powers_cell(f, None, None, None, 1, 0, 0, _index_for(f, t))
    return cell_round(f.p, f.n, cell)


def antider_w(e: GridFunction, w: GridFunction, t) -> PAdicValue:
    """Path antiderivation, the term (0, 1, 1) with the unit slot: chain sum
    of e times the increments of w; e = 1 telescopes to w(t) - w(center)."""
    _check_same_grid(e, w)
    cell = antider_powers_cell(e, None, None, w, 0, 0, 1, _index_for(e, t))
    return cell_round(e.p, e.n, cell)


def _check_same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.ball != b.ball or a.depth != b.depth:
        raise ValueError("grid mismatch")


def _edge_sums(p: int, acc: Cell, pieces, exp: int, digits, dws) -> list:
    """The cells acc + sum of ``pv * (d p**exp)**du * av**ma * (ev*dw)**l``
    over the node's ``(du, ma, l, pv, av, ev)`` value pieces, one per digit
    d with path increment ``dws[i]``; an ``ev`` of None is the unit slot.
    A piece folds once into the cell ``K = pv av**ma ev**l p**(exp du)``;
    an edge term is ``K d**du dw**l``."""
    terms = []
    for du, ma, l, pv, av, ev in pieces:
        kn, ke = pv.m, pv.v + exp * du
        if ma:
            kn *= av.m ** ma
            ke += av.v * ma
        if ev is not None:
            kn *= ev.m ** l
            ke += ev.v * l
        if kn:
            terms.append((du, l, kn, ke))
    an, ae = acc
    out = []
    for i, d in enumerate(digits):
        sn, se = an, ae
        for du, l, tn, te in terms:
            if du:
                tn *= d ** du
            if l:
                wn, we = dws[i]
                if not wn:
                    continue
                tn *= wn ** l
                te += we * l
            if not sn:
                sn, se = tn, te
            elif se <= te:
                sn += tn * _pow(p, te - se)
            else:
                sn, se = tn + sn * _pow(p, se - te), te
        out.append((sn, se))
    return out


def antider_powers_cell(deriv: GridFunction, a: GridFunction | None,
                        e: GridFunction | None, w: GridFunction | None,
                        du_pow: int, a_pow: int, ew_pow: int, k: int) -> Cell:
    """Chain sum of deriv * dt**du_pow * a**a_pow * (e*dw)**ew_pow at index
    k, by ``_edge_sums`` step by step; an e of None is the unit slot."""
    p = deriv.p
    acc = ZERO_CELL
    for _level, j, jn, (d, exp) in deriv.chain_steps(k):
        av = a.values[j] if a_pow else None
        ev = e.values[j] if ew_pow and e is not None else None
        dw = cell_sub(p, cell_of(w.values[jn]), cell_of(w.values[j])) \
            if ew_pow else None
        piece = (du_pow, a_pow, ew_pow, deriv.values[j], av, ev)
        acc, = _edge_sums(p, acc, (piece,), exp, (d,), (dw,))
    return acc


def _check_indices(b, m, l) -> None:
    """The one rule of a term's indices: integers, b >= 0, 0 <= l <= m."""
    if not all(isinstance(i, int) for i in (b, m, l)) or b < 0 \
            or not 0 <= l <= m:
        raise ValueError("index")


def antider_mixed(deriv: GridFunction, a, e, w, b: int, m: int, l: int,
                  t) -> PAdicValue:
    """Mixed-power antiderivation: the single chain sum of
    ``deriv(t_j) * step**(b+m-l) * a(t_j)**(m-l) * (e(t_j)*dw_j)**l``.

    With (b, m, l) = (1, 0, 0) this is antider_u of deriv; with (0, 1, 1)
    and a constant unit diffusion slot it is antider_w.  The indices obey
    the one rule, ``_check_indices``: integers, b >= 0, 0 <= l <= m.
    """
    _check_indices(b, m, l)
    if m - l and a is None:
        raise ValueError("coefficient grid required for the a powers")
    if l and (e is None or w is None):
        raise ValueError("diffusion grid and path required for the w powers")
    for g in (a, e, w):
        if g is not None:
            _check_same_grid(deriv, g)
    cell = antider_powers_cell(deriv, a, e, w, b + m - l, m - l, l,
                               _index_for(deriv, t))
    return cell_round(deriv.p, deriv.n, cell)


# -- covariation and integration by parts ---------------------------------------


def covariation_cell(x: GridFunction, y: GridFunction, k: int) -> Cell:
    p = x.p
    acc = ZERO_CELL
    for _level, j, jn, _step in x.chain_steps(k):
        dx = cell_sub(p, cell_of(x.values[jn]), cell_of(x.values[j]))
        dy = cell_sub(p, cell_of(y.values[jn]), cell_of(y.values[j]))
        acc = cell_add(p, acc, cell_mul(dx, dy))
    return acc


def covariation(x: GridFunction, y: GridFunction, t) -> PAdicValue:
    """Discrete covariation: the chain sum of products of increments.
    Symmetric and bilinear; constant arguments give zero."""
    _check_same_grid(x, y)
    k = _index_for(x, t)
    return cell_round(x.p, x.n, covariation_cell(x, y, k))


def by_parts_residual(x: GridFunction, y: GridFunction, t) -> PAdicValue:
    """Exact residual of the integration-by-parts identity

        P_X Y - [X_t Y_t - X_0 Y_0 - P_Y X - C(X, Y)]

    evaluated at a grid point.  The identity telescopes term by term, so
    the residual is the exact zero at every precision.
    """
    _check_same_grid(x, y)
    p = x.p
    k = _index_for(x, t)
    lhs = antider_powers_cell(y, None, None, x, 0, 0, 1, k)
    xt, yt = cell_of(x.values[k]), cell_of(y.values[k])
    x0, y0 = cell_of(x.values[0]), cell_of(y.values[0])
    rhs = cell_sub(p, cell_mul(xt, yt), cell_mul(x0, y0))
    rhs = cell_sub(p, rhs, antider_powers_cell(x, None, None, y, 0, 0, 1, k))
    rhs = cell_sub(p, rhs, covariation_cell(x, y, k))
    return cell_round(p, x.n, cell_sub(p, lhs, rhs))


def square_decomposition_residual(w: GridFunction, t) -> PAdicValue:
    """Exact residual of the square decomposition at a grid point:
    C(w, w) - [w_t**2 - w_0**2 - 2 * sum w(t_j) dw_j]."""
    p = w.p
    k = _index_for(w, t)
    quad = covariation_cell(w, w, k)
    wt2 = cell_mul(cell_of(w.values[k]), cell_of(w.values[k]))
    w02 = cell_mul(cell_of(w.values[0]), cell_of(w.values[0]))
    cross = antider_powers_cell(w, None, None, w, 0, 0, 1, k)
    rhs = cell_sub(p, cell_sub(p, wt2, w02), cell_mul((2, 0), cross))
    return cell_round(p, w.n, cell_sub(p, quad, rhs))


# -- full-grid transforms --------------------------------------------------------


def antider_u_grid(f: GridFunction) -> GridFunction:
    """The time antiderivation evaluated at every grid point, by a single
    level-order pass over the digit tree (prefix sums are shared)."""
    p, n = f.p, f.n

    def children(level, j, base, kids):
        return _edge_sums(p, base, ((1, 0, 0, f.values[j], None, None),),
                          f.step_exponent(level), range(1, p), None)

    acc = _tree_scan(p, f.levels, ZERO_CELL, children)
    return GridFunction(f.ball, f.depth,
                        tuple(cell_round(p, n, c) for c in acc))


def antider_w_grid(e: GridFunction, w: GridFunction) -> GridFunction:
    """The path antiderivation at every grid point (level-order pass)."""
    _check_same_grid(e, w)
    p, n = e.p, e.n
    wc = [cell_of(v) for v in w.values]

    def children(level, j, base, kids):
        return _edge_sums(p, base, ((0, 0, 1, e.values[j], None, None),), 0,
                          range(1, p),
                          [cell_sub(p, wc[jn], wc[j]) for jn in kids])

    acc = _tree_scan(p, e.levels, ZERO_CELL, children)
    return GridFunction(e.ball, e.depth,
                        tuple(cell_round(p, n, c) for c in acc))
