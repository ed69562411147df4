from fractions import Fraction

import pytest

from padicsde.antider import (
    GridFunction,
    antider_mixed,
    antider_u,
    antider_u_grid,
    antider_w,
    antider_w_grid,
    by_parts_residual,
    covariation,
    square_decomposition_residual,
)
from padicsde.evolution import GeneratorSpec, solve_evolution
from padicsde.measure import level_betas, wiener_path
from padicsde.padic import BallSpec, PAdicValue, mahler_poly

N = 6


def unit_ball(p, n=N):
    return BallSpec.unit(p, n)


def test_coordinate_grid_built_once_per_ball_and_depth():
    p = 3
    center = PAdicValue(p, N, -1, 5)
    ball = BallSpec(center, 2)
    grid = GridFunction.coordinate(ball, 2)
    assert GridFunction.coordinate(ball, 2) is grid
    assert grid == GridFunction.from_callable(ball, 2, lambda t: t)
    assert grid.values[1] == center + PAdicValue(p, N, -2, 1)
    # balls that differ only in center or in precision
    for other in (BallSpec(PAdicValue(p, N, -1, 7), 2),
                  BallSpec(PAdicValue(p, N - 1, -1, 5), 2)):
        assert GridFunction.coordinate(other, 2).values != grid.values


@pytest.mark.parametrize("build, depth", [
    (lambda ball, d: GridFunction.coordinate(ball, d), -1),
    (lambda ball, d: GridFunction.constant(ball, d, PAdicValue.one(3, N)), -2),
    (lambda ball, d: solve_evolution(
        GeneratorSpec.constant(((Fraction(3),),)), ball, d), -1),
    (lambda ball, d: level_betas(ball, d, 1.0), -1),
], ids=["coordinate", "constant", "solve_evolution", "level_betas"])
def test_negative_total_depth_is_refused(build, depth):
    # BallSpec.grid_size is the one home of the rule; a radius that makes
    # the total depth zero leaves a one-point grid
    with pytest.raises(ValueError, match=f"depth {depth}: "):
        build(unit_ball(3), depth)
    build(BallSpec(PAdicValue.zero(3, N), -depth), depth)


def random_grid(p, depth, rng, n=N, vmin=0, vmax=2):
    """Grid function with pseudo-random p-adic integer values."""
    import random
    r = random.Random(rng)
    ball = unit_ball(p, n)
    vals = []
    for _ in range(ball.grid_size(depth)):
        if r.randrange(8) == 0:
            vals.append(PAdicValue.zero(p, n))
        else:
            m = r.randrange(1, p**n)
            while m % p == 0:
                m = r.randrange(1, p**n)
            vals.append(PAdicValue(p, n, r.randint(vmin, vmax), m))
    return GridFunction(ball, depth, tuple(vals))


def test_antider_of_one_telescopes_to_t():
    for p in (2, 3, 5):
        ball = unit_ball(p)
        one = GridFunction.constant(ball, 4, PAdicValue.one(p, N))
        for k in range(ball.grid_size(4)):
            t = ball.point(k, 4)
            assert (antider_u(one, t) - t).is_zero


def test_antider_constant_is_linear():
    p = 5
    ball = unit_ball(p)
    c = PAdicValue.from_int(7, p, N)
    cf = GridFunction.constant(ball, 3, c)
    for k in (0, 3, 12, 88):
        t = ball.point(k, 3)
        assert (antider_u(cf, t) - c * t).is_zero


def test_antider_two_term_digit_sum():
    # integrand t on Z_5 at t = 1 + 2*5: steps contribute 0*1 + 1*(2*5)
    p, n = 5, 4
    ball = unit_ball(p, n)
    f = GridFunction.coordinate(ball, 4)
    t = PAdicValue.from_int(11, p, n)
    assert antider_u(f, t).as_fraction() == 10


def test_antider_value_zero_at_center():
    p = 3
    f = random_grid(p, 4, rng=1)
    assert antider_u(f, 0).is_zero


def test_antider_w_telescoping_and_zero():
    p = 5
    ball = unit_ball(p)
    w = wiener_path("tree", ball, 4, 1.0, seed=7)
    one = GridFunction.constant(ball, 4, PAdicValue.one(p, N))
    zero = GridFunction.constant(ball, 4, PAdicValue.zero(p, N))
    for k in (1, 5, 24, 124):
        t = ball.point(k, 4)
        assert (antider_w(one, w, t) - w[t]).is_zero
        assert antider_w(zero, w, t).is_zero


def test_grid_transforms_match_pointwise():
    # the grid route (one tree scan) against the point route (the chain
    # sum of each index) of both terms, on a ball off the origin; at
    # radius_exp 1 the first step has a negative exponent
    depth = 4
    for p, radius_exp in [(2, 0), (2, 1), (3, 0), (3, 1), (5, 0), (5, 1)]:
        ball = BallSpec(PAdicValue.from_int(7, p, N), radius_exp)
        f = GridFunction(ball, depth,
                         random_grid(p, radius_exp + depth, rng=2).values)
        w = wiener_path("tree", ball, depth, 1.0, seed=3)
        gu = antider_u_grid(f)
        gw = antider_w_grid(f, w)
        for k in range(f.size):
            assert gu.values[k] == antider_u(f, k), (p, radius_exp, k)
            assert gw.values[k] == antider_w(f, w, k), (p, radius_exp, k)


def test_antider_linear_in_integrand():
    p = 3
    f = random_grid(p, 3, rng=4)
    g = random_grid(p, 3, rng=5)
    c = PAdicValue.from_int(2, p, N)
    summed = GridFunction(f.ball, f.depth,
                          tuple(c * a + b for a, b in zip(f.values, g.values)))
    for k in (2, 7, 16, 26):
        lhs = antider_u(summed, k)
        rhs = c * antider_u(f, k) + antider_u(g, k)
        assert lhs.agrees_abs(rhs, N)


def test_antider_operator_norm_bound():
    p = 5
    f = random_grid(p, 4, rng=6)
    sup_f = max(v.norm() for v in f.values)
    for k in range(f.size):
        steps = [p ** (-level) for level, *_ in f.chain_steps(k)]
        bound = sup_f * max(steps, default=0.0)
        assert antider_u(f, k).norm() <= bound + 1e-12


def test_antider_derivative_recovers_integrand():
    # (P f(t + p^n) - P f(t)) / p^n agrees with f(t) to N - n - 1 digits
    p = 5
    ball = unit_ball(p)
    depth = N
    f = GridFunction.from_callable(ball, depth, lambda t: mahler_poly(2, t))
    pf = antider_u_grid(f)
    t_idx = 7
    t = ball.point(t_idx, depth)
    for step in (2, 3, 4):
        t2_idx = t_idx + p**step
        quot = (pf.values[t2_idx] - pf.values[t_idx]).scale_pow(-step)
        assert quot.agrees_abs(f.values[t_idx], N - step - 1)


def test_precision_refinement_changes_only_tail():
    # same integer grid data at precision N and N+1: values differ below p^-N
    p = 3
    depth = 4
    ball_lo = BallSpec.unit(p, N)
    ball_hi = BallSpec.unit(p, N + 1)
    f_lo = GridFunction.from_callable(ball_lo, depth,
                                      lambda t: mahler_poly(3, t))
    f_hi = GridFunction.from_callable(ball_hi, depth,
                                      lambda t: mahler_poly(3, t))
    g_lo = antider_u_grid(f_lo)
    g_hi = antider_u_grid(f_hi)
    for k in range(g_lo.size):
        a, b = g_lo.values[k], g_hi.values[k]
        diff = a.as_fraction() - b.as_fraction()
        if diff:
            num, den = abs(diff.numerator), diff.denominator
            v = 0
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            assert v >= (a.v if not a.is_zero else 0) + N


def test_mixed_reduces_to_antider_u():
    p = 3
    for rng in range(10):
        f = random_grid(p, 3, rng=rng)
        for k in (1, 9, 20):
            assert antider_mixed(f, None, None, None, 1, 0, 0, k) == \
                antider_u(f, k)


def test_mixed_reduces_to_antider_w():
    p = 3
    ball = unit_ball(p)
    one = GridFunction.constant(ball, 3, PAdicValue.one(p, N))
    for rng in range(10):
        e = random_grid(p, 3, rng=100 + rng)
        w = wiener_path("tree", ball, 3, 1.0, seed=rng)
        for k in (1, 9, 20):
            got = antider_mixed(e, None, one, w, 0, 1, 1, k)
            assert got == antider_w(e, w, k)


def test_mixed_quadratic_increment_sum():
    # (b, m, l) = (0, 2, 2) with second derivative 2 and unit diffusion is
    # twice the covariation quadratic term
    p = 5
    ball = unit_ball(p)
    two = GridFunction.constant(ball, 4, PAdicValue.from_int(2, p, N))
    one = GridFunction.constant(ball, 4, PAdicValue.one(p, N))
    w = wiener_path("tree", ball, 4, 1.0, seed=11)
    for k in (3, 17, 124, 333):
        got = antider_mixed(two, None, one, w, 0, 2, 2, k)
        quad = covariation(w, w, k)
        assert got == quad + quad


def test_mixed_index_error():
    # l > m, and indices that are not integers: a float index would give
    # a value with a float mantissa
    p = 3
    f = random_grid(p, 3, rng=0)
    for b, m, l in [(0, 1, 2), (1.5, 0, 0), (0, 1, 0.5)]:
        with pytest.raises(ValueError, match="index"):
            antider_mixed(f, None, None, None, b, m, l, 4)


def test_covariation_examples():
    p = 5
    ball = unit_ball(p)
    idf = GridFunction.coordinate(ball, 4)
    w = wiener_path("tree", ball, 4, 1.0, seed=13)
    one_idx = 1
    # time against path at t = 1: the single unit step picks up w(1)
    got = covariation(idf, w, one_idx)
    assert got == w.values[one_idx]
    # constant argument kills every increment
    cf = GridFunction.constant(ball, 4, PAdicValue.from_int(9, p, N))
    assert covariation(cf, w, 77).is_zero
    # symmetry
    f = random_grid(p, 4, rng=8)
    for k in (2, 11, 300):
        assert covariation(f, w, k) == covariation(w, f, k)


def test_square_decomposition_exact():
    # a sampled path starts at zero; the random grid does not, so the
    # w_0**2 term is read too
    for p in (2, 3, 5):
        ball = unit_ball(p)
        rough = random_grid(p, 4, rng=17)
        assert not rough.values[0].is_zero
        for w in (wiener_path("tree", ball, 4, 1.0, seed=17), rough):
            for k in range(0, ball.grid_size(4), 7):
                assert square_decomposition_residual(w, k).is_zero


def test_by_parts_exact_zero():
    for p in (2, 3, 5):
        for rng in range(25):
            x = random_grid(p, 4, rng=1000 + rng)
            y = random_grid(p, 4, rng=2000 + rng)
            k = (rng * 37) % x.size
            assert by_parts_residual(x, y, k).is_zero


class _Unread:
    """A grid entry that fails on any use: its index must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"an unread grid entry was used ({name})")


def chain_reads(grid, k):
    """The indices a by-parts residual at k reads: 0, k and both ends of
    every step of k's chain."""
    read = {0, k}
    for _level, j, jn, _step in grid.chain_steps(k):
        read.update((j, jn))
    return read


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("radius_exp", [0, 1])
def test_by_parts_reads_only_chain_indices(p, radius_exp):
    # every entry off the chain raises when read, and the residual equals
    # that of the grids with those entries zeroed (an exact zero)
    import random
    r = random.Random(31 * p + radius_exp)
    ball = BallSpec(PAdicValue.zero(p, N), radius_exp)
    depth = 3
    size = ball.grid_size(depth)

    def unit():
        m = r.randrange(1, p**N)
        while m % p == 0:
            m = r.randrange(1, p**N)
        return PAdicValue(p, N, r.randrange(0, 3), m)

    xs = [unit() for _ in range(size)]
    ys = [unit() for _ in range(size)]
    zero = PAdicValue.zero(p, N)
    for k in sorted({0, 1, p, size // 2, size - 2, size - 1,
                     *r.sample(range(size), 4)}):
        read = chain_reads(GridFunction.coordinate(ball, depth), k)
        assert len(read) <= ball.radius_exp + depth + 1

        def grid(vals, fill):
            return GridFunction(ball, depth, tuple(
                v if i in read else fill for i, v in enumerate(vals)))

        zeroed = by_parts_residual(grid(xs, zero), grid(ys, zero), k)
        unread = _Unread()
        assert by_parts_residual(grid(xs, unread), grid(ys, unread), k) \
            == zeroed
        assert zeroed.is_zero


def test_by_parts_specializations():
    p = 3
    ball = unit_ball(p)
    w = wiener_path("tree", ball, 4, 1.0, seed=19)
    # x = y reduces to the square decomposition
    assert by_parts_residual(w, w, 44).is_zero
    # constant x: both sides vanish
    cf = GridFunction.constant(ball, 4, PAdicValue.from_int(5, p, N))
    assert by_parts_residual(cf, w, 44).is_zero


def test_grid_mismatch_errors():
    p = 3
    a = random_grid(p, 3, rng=1)
    b = random_grid(p, 4, rng=1)
    with pytest.raises(ValueError, match="grid mismatch"):
        covariation(a, b, 1)


def test_grid_incomplete_lookup():
    p = 3
    f = random_grid(p, 3, rng=1)
    outside = PAdicValue.from_rational(1, 3, p, N)
    with pytest.raises(ValueError, match="grid incomplete"):
        f[outside]


# every chain walk goes through GridFunction.chain_steps, which refuses an
# index outside 0 <= k < size: read mod the grid size, it would be the chain
# of another point
_CHAIN_ENTRY_POINTS = {
    "antider_u": lambda x, y, k: antider_u(x, k),
    "antider_w": lambda x, y, k: antider_w(x, y, k),
    "antider_mixed": lambda x, y, k: antider_mixed(x, None, x, y, 0, 1, 1, k),
    "covariation": lambda x, y, k: covariation(x, y, k),
    "by_parts_residual": lambda x, y, k: by_parts_residual(x, y, k),
    "square_decomposition_residual":
        lambda x, y, k: square_decomposition_residual(y, k),
}


@pytest.mark.parametrize("name", sorted(_CHAIN_ENTRY_POINTS))
def test_chain_walks_refuse_indices_outside_the_grid(name):
    op = _CHAIN_ENTRY_POINTS[name]
    p = 3
    x = random_grid(p, 3, rng=5)
    y = wiener_path("tree", unit_ball(p), 3, 1.0, seed=23)
    size = x.size
    for k in (-1, -size, size, size + 1):
        with pytest.raises(ValueError, match="grid index out of range"):
            op(x, y, k)
    for k in (0, 1, size - 1):
        op(x, y, k)


def test_shifted_ball_with_positive_radius():
    # chains are relative to the marked center; the unit integrand
    # telescopes to t - center, and by-parts stays exact off Z_p
    p = 3
    center = PAdicValue.from_int(2, p, N)
    ball = BallSpec(center, radius_exp=1)
    depth = 3
    assert ball.grid_size(depth) == p ** (1 + depth)
    one = GridFunction.constant(ball, depth, PAdicValue.one(p, N))
    for k in (0, 1, 5, ball.grid_size(depth) - 1):
        t = ball.point(k, depth)
        assert (antider_u(one, t) - (t - center)).is_zero
    w = wiener_path("tree", ball, depth, 1.0, seed=3)
    assert w.values[0].is_zero
    idf = GridFunction.coordinate(ball, depth)
    for k in (1, 7, 20, 44):
        assert by_parts_residual(idf, w, k).is_zero
    grid = antider_u_grid(one)
    for k in range(grid.size):
        assert grid.values[k] == antider_u(one, k)


@pytest.mark.parametrize("p, radius_exp", [(2, 0), (3, 1), (5, 0)])
def test_mixed_matches_rational_chain_sum(p, radius_exp):
    # every (b, m, l) shape up to m = 2 against the chain sum of
    # deriv * step**(b+m-l) * a**(m-l) * (e dw)**l in rationals, rounded
    # once; the step is d * p**(level - radius_exp)
    from fractions import Fraction

    depth = 3
    ball = BallSpec(PAdicValue.from_int(2, p, N), radius_exp)

    def grid(rng):
        vals = random_grid(p, radius_exp + depth, rng=rng).values
        return GridFunction(ball, depth, vals)

    deriv, a, e = grid(1), grid(2), grid(3)
    w = wiener_path("tree", ball, depth, 1.0, seed=p + radius_exp)
    fr = PAdicValue.as_fraction
    for b, m, l in [(1, 0, 0), (3, 0, 0), (0, 1, 1), (2, 1, 0), (0, 2, 2),
                    (1, 2, 1), (0, 2, 0)]:
        for k in (1, p + 1, ball.grid_size(depth) - 1):
            acc = Fraction(0)
            for _lev, j, jn, (d, exp) in deriv.chain_steps(k):
                dw = fr(w.values[jn]) - fr(w.values[j])
                acc += (fr(deriv.values[j]) * (d * Fraction(p) ** exp)
                        ** (b + m - l) * fr(a.values[j]) ** (m - l)
                        * (fr(e.values[j]) * dw) ** l)
            assert antider_mixed(deriv, a, e, w, b, m, l, k) == \
                PAdicValue.from_fraction(acc, p, N), (b, m, l, k)
