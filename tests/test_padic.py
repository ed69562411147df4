import copy
import dataclasses
import math
import pickle
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicsde.padic import (
    PRIME_LIMIT,
    BallSpec,
    PAdicValue,
    _is_prime,
    _vp,
    digit_prefix,
    frac_part,
    mahler_basis,
    mahler_poly,
    padic_exp,
)

PRIMES = [2, 3, 5, 7]
N = 6


def rand_value(draw, p, vmin=-3, vmax=3, allow_zero=True):
    if allow_zero and draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return PAdicValue.zero(p, N)
    v = draw(st.integers(vmin, vmax))
    m = draw(st.integers(1, p**N - 1).filter(lambda k: k % p != 0))
    return PAdicValue(p, N, v, m)


values = st.builds(lambda _: None, st.none())  # placeholder, composed below


@st.composite
def padic_values(draw, vmin=-3, vmax=3, allow_zero=True):
    p = draw(st.sampled_from(PRIMES))
    return rand_value(draw, p, vmin, vmax, allow_zero)


@st.composite
def padic_pairs(draw, vmin=-3, vmax=3):
    p = draw(st.sampled_from(PRIMES))
    return (rand_value(draw, p, vmin, vmax), rand_value(draw, p, vmin, vmax))


@st.composite
def padic_triples(draw, vmin=0, vmax=3):
    p = draw(st.sampled_from(PRIMES))
    return tuple(rand_value(draw, p, vmin, vmax) for _ in range(3))


def test_carry_example():
    # 2 + 3 carries into the next digit at p = 5
    p = 5
    x = PAdicValue.from_int(2, p, N) + PAdicValue.from_int(3, p, N)
    assert x.as_fraction() == 5
    assert x.v == 1
    assert x.norm() == pytest.approx(1 / 5)


def test_inverse_of_two_mod_5_4():
    # brute-force oracle for the inverse of 2 modulo 5**4
    inv = next(k for k in range(5**4) if (2 * k) % 5**4 == 1)
    assert inv == 313
    x = PAdicValue.from_int(2, 5, 4).inv()
    assert x.v == 0
    assert x.digits() == (3, 2, 2, 2)
    assert x.m == inv


def test_add_zero_identity():
    for p in PRIMES:
        x = PAdicValue(p, N, -2, 1 + p)
        assert x + PAdicValue.zero(p, N) == x
        assert PAdicValue.zero(p, N) + x == x
    # at mixed precision the zero fast paths truncate to the lower one
    x = PAdicValue(5, 4, 0, 123)
    assert PAdicValue.zero(5, 2) + x == PAdicValue(5, 2, 0, 23)
    assert x + PAdicValue.zero(5, 2) == PAdicValue(5, 2, 0, 23)
    assert PAdicValue.zero(5, 2) - x == PAdicValue(5, 2, 0, 2)
    assert x - PAdicValue.zero(5, 2) == PAdicValue(5, 2, 0, 23)


def test_prime_mismatch():
    with pytest.raises(ValueError, match="prime mismatch"):
        PAdicValue.from_int(1, 2, N) + PAdicValue.from_int(1, 3, N)


def test_zero_inverse():
    with pytest.raises(ZeroDivisionError, match="zero inverse"):
        PAdicValue.zero(5, N).inv()


@settings(max_examples=200, deadline=None)
@given(padic_pairs())
def test_ultrametric_triangle(pair):
    x, y = pair
    s = x + y
    assert s.norm() <= max(x.norm(), y.norm()) + 1e-12
    if not x.is_zero and not y.is_zero and x.v != y.v:
        assert s.norm() == max(x.norm(), y.norm())


def test_norm_beyond_the_float_range_is_inf():
    # 2.0 ** 1100 overflows the float range
    assert PAdicValue(2, 6, -1100, 1).norm() == math.inf


@settings(max_examples=200, deadline=None)
@given(padic_pairs())
def test_norm_multiplicative(pair):
    x, y = pair
    prod = x * y
    if x.is_zero or y.is_zero:
        assert prod.is_zero
    else:
        assert prod.v == x.v + y.v


@settings(max_examples=200, deadline=None)
@given(padic_triples())
def test_ring_laws_at_precision(triple):
    # inputs have valuation >= 0, so results are certified modulo p**N
    a, b, c = triple
    assert ((a + b) + c).agrees_abs(a + (b + c), N)
    assert ((a * b) * c).agrees_abs(a * (b * c), N)
    assert (a * (b + c)).agrees_abs(a * b + a * c, N)


@settings(max_examples=100, deadline=None)
@given(padic_values(allow_zero=False))
def test_inverse_round_trip(x):
    assert x * x.inv() == PAdicValue.one(x.p, x.n)


def test_digit_prefix_examples():
    p = 5
    t = PAdicValue.from_int(1 + 2 * 5 + 3 * 25, p, N)
    assert digit_prefix(t, 1).as_fraction() == 1
    assert digit_prefix(t, 2).as_fraction() == 11
    assert digit_prefix(t, N) == t
    z = PAdicValue.zero(p, N)
    for j in range(N + 1):
        assert digit_prefix(z, j).is_zero


def test_digit_prefix_unit_increments():
    # t = 1 has the single nonzero step at level 0
    t = PAdicValue.from_int(1, 5, N)
    incs = [digit_prefix(t, j + 1) - digit_prefix(t, j) for j in range(N)]
    assert incs[0].as_fraction() == 1
    assert all(i.is_zero for i in incs[1:])


@settings(max_examples=100, deadline=None)
@given(padic_values(), st.integers(0, N), st.integers(0, N))
def test_digit_prefix_idempotent(t, j, k):
    assert digit_prefix(digit_prefix(t, k), j) == digit_prefix(t, min(j, k))


@settings(max_examples=100, deadline=None)
@given(padic_values())
def test_digit_prefix_telescopes(t):
    total = PAdicValue.zero(t.p, t.n)
    for j in range(N):
        total = total + (digit_prefix(t, j + 1) - digit_prefix(t, j))
    assert total == t


def test_digit_prefix_beyond_precision():
    with pytest.raises(ValueError, match="beyond precision"):
        digit_prefix(PAdicValue.from_int(1, 5, N), N + 1)


def test_frac_part():
    p = 5
    assert frac_part(PAdicValue.from_int(7, p, N)) == 0
    assert frac_part(PAdicValue.from_rational(1, 5, p, N)) == Fraction(1, 5)
    # 7/25 = 2*5**-2 + 1*5**-1
    assert frac_part(PAdicValue.from_rational(7, 25, p, N)) == Fraction(7, 25)


def test_mahler_basics():
    p = 7
    x = PAdicValue.from_int(12, p, N)
    assert mahler_poly(0, x) == PAdicValue.one(p, N)
    # binomial vanishing at small integers
    for m in range(1, 5):
        for k in range(m):
            q = mahler_poly(m, PAdicValue.from_int(k, p, N))
            assert q.is_zero
    # Q_2(7) = 21 with norm 1/7
    q = mahler_poly(2, PAdicValue.from_int(7, p, N))
    assert q.as_fraction() == 21
    assert q.norm() == pytest.approx(1 / 7)
    # the one-pass basis lists the same polynomials
    assert mahler_basis(x, 4) == [mahler_poly(m, x) for m in range(5)]


def test_mahler_domain():
    y = PAdicValue.from_rational(1, 5, 5, N)
    with pytest.raises(ValueError, match="domain"):
        mahler_poly(2, y)
    # the basis itself is defined off Z_p: Q_2(1/5) = -2/25
    assert mahler_basis(y, 2)[2] == PAdicValue.from_rational(-2, 25, 5, N)


def test_mahler_sup_norm_on_grid():
    # orthonormality proxy: sup over the canonical grid is exactly 1
    p, depth = 3, 4
    ball = BallSpec.unit(p, N)
    for m in range(21):
        norms = [
            mahler_poly(m, ball.point(k, depth)).norm()
            for k in range(ball.grid_size(depth))
        ]
        assert max(norms) == 1.0
        assert all(v <= 1.0 for v in norms)


def _exp_oracle(z: PAdicValue, terms: int = 60) -> PAdicValue:
    """Independent oracle: exact rational partial sum of the series."""
    total = Fraction(0)
    zf = z.as_fraction()
    for k in range(terms):
        total += zf**k / math.factorial(k)
    return PAdicValue.from_fraction(total, z.p, z.n)


def test_exp_examples():
    p, n = 5, 6
    assert padic_exp(PAdicValue.zero(p, n)) == PAdicValue.one(p, n)
    a = padic_exp(PAdicValue.from_int(5, p, n))
    b = padic_exp(PAdicValue.from_int(-5, p, n))
    assert (a * b).agrees_abs(PAdicValue.one(p, n), n - 1)
    # exp(5+5) = exp(5)**2 bit-exact at working precision
    lhs = padic_exp(PAdicValue.from_int(10, p, n))
    assert lhs == a * a
    # independent exact-series oracle agrees
    assert lhs.agrees_abs(_exp_oracle(PAdicValue.from_int(10, p, n)), n - 1)


def test_vp():
    assert _vp(2 * 5**3, 5) == 3
    assert _vp(-7, 7) == 1
    assert _vp(1, 2) == 0
    # every power of p divides zero: refuse rather than loop (the alarm
    # turns a loop into a failure instead of a hang)
    def expire(signum, frame):
        raise TimeoutError("_vp(0, p) did not return")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="valuation of zero"):
            _vp(0, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_exp_domain():
    with pytest.raises(ValueError, match="EXP divergence"):
        padic_exp(PAdicValue.from_int(1, 5, N))
    with pytest.raises(ValueError, match="EXP divergence"):
        padic_exp(PAdicValue.from_int(2, 2, N))
    # p = 2 needs valuation >= 2
    padic_exp(PAdicValue.from_int(4, 2, N))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_exp_homomorphism(p, data):
    va = data.draw(st.integers(1, 3))
    vb = data.draw(st.integers(1, 3))
    ma = data.draw(st.integers(1, p**N - 1).filter(lambda k: k % p != 0))
    mb = data.draw(st.integers(1, p**N - 1).filter(lambda k: k % p != 0))
    a = PAdicValue(p, N, va, ma)
    b = PAdicValue(p, N, vb, mb)
    lhs = padic_exp(a + b)
    rhs = padic_exp(a) * padic_exp(b)
    assert lhs.agrees_abs(rhs, N - 1)


def test_serialization_round_trip():
    x = PAdicValue(5, N, -2, 1 + 3 * 5 + 4 * 125)
    assert PAdicValue.parse(x.qp_str()) == x
    z = PAdicValue.zero(3, N)
    assert PAdicValue.parse(z.qp_str()) == z


@st.composite
def text_values(draw):
    """Values at precision 1..13 for primes with and without a digit-text
    table (the table stops at p**k <= 4096)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 4099, 2**31 - 1]))
    n = draw(st.integers(1, 13))
    if draw(st.integers(0, 9)) == 0:
        return PAdicValue.zero(p, n)
    v = draw(st.integers(-20, 20))
    m = draw(st.integers(1, p**n - 1).filter(lambda k: k % p != 0))
    return PAdicValue(p, n, v, m)


@settings(max_examples=400, deadline=None)
@given(text_values())
@example(PAdicValue(2, 13, -3, 2**13 - 1))   # low half 7 digits, high 6
@example(PAdicValue(3, 7, 0, 3**7 - 1))      # low half 4 digits, high 3
@example(PAdicValue(11, 4, -1, 1 + 10 * 11**3))  # two-character digits
@example(PAdicValue.zero(5, 13))
@example(PAdicValue(5, 1, 2, 4))             # n = 1: an empty high half
@example(PAdicValue(7, 5, 0, 3 + 6 * 7**4))  # odd n
@example(PAdicValue(7, 6, 1, 7**6 - 1))      # even n
# p**ceil(n/2) at the table size, and one digit past it (digit by digit)
@example(PAdicValue(2, 24, 0, 2**24 - 1))
@example(PAdicValue(2, 25, -1, 2**25 - 1))
@example(PAdicValue(3, 14, 0, 3**14 - 2))
@example(PAdicValue(3, 15, 2, 1 + 2 * 3**14))
@example(PAdicValue(5, 10, 0, 5**10 - 2))
@example(PAdicValue(5, 11, -4, 1 + 4 * 5**10))
# primes above the table size: digit by digit
@example(PAdicValue(4099, 3, 0, 4098 + 17 * 4099**2))
@example(PAdicValue(2**31 - 1, 2, -1, 5 + 12345 * (2**31 - 1)))
def test_qp_str_matches_digit_text(x):
    ds = " ".join(str(d) for d in x.digits())
    assert x.qp_str() == f"QP(p={x.p},v={x.v},d={ds})"
    assert PAdicValue.parse(x.qp_str(), x.n) == x


@settings(max_examples=300, deadline=None)
@given(text_values())
def test_qp_str_is_one_quoted_csv_cell(x):
    # the CLI's CSV writer quotes every QP text without scanning it: each
    # holds a comma, and none holds a quote or a line break
    text = x.qp_str()
    assert "," in text
    assert not {'"', "\r", "\n"} & set(text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 4099]), st.integers(1, 12),
       st.integers(-10**30, 10**30), st.integers(0, 5), st.integers(-9, 9))
@example(5, 6, 0, 0, 3)              # zero
@example(3, 4, -7, 2, -1)            # negative and p-divisible
@example(2, 5, -1, 0, 0)             # -1: every digit of the mantissa 1
@example(7, 3, 7**5 - 1, 3, 2)       # more than n digits after the strip
def test_from_cell_matches_vp_reference(p, n, base, s, exp):
    num = base * p**s
    got = PAdicValue._from_cell(p, n, num, exp)
    if num == 0:
        assert (got.v, got.m) == (0, 0)
    else:
        k = _vp(num, p)
        assert (got.v, got.m) == (exp + k, (num // p**k) % p**n)
    assert (got.p, got.n) == (p, n)


@pytest.mark.parametrize("text, n", [
    ("QP(p=5,v=0,d=1 2 3)", 2),       # more digits than the precision
    ("QP(p=4,v=0,d=1 2 3)", None),    # p not prime
    ("QP(p=5,v=0,d=1 2 3,x=3)", None),  # unknown field
    ("QP(p=5,d=1 2 3)", None),        # missing field
    ("QP(p=5,v=0,v=1,d=1 2 3)", None),  # repeated field
    ("QP(p=5,v=0,d=)", None),         # no digits
])
def test_parse_refuses_what_it_cannot_round_trip(text, n):
    with pytest.raises(ValueError):
        PAdicValue.parse(text, n)


def assert_invariant(x, p, n):
    assert (x.p, x.n) == (p, n)
    assert 0 <= x.m < p**n
    if x.m == 0:
        assert x.v == 0
    else:
        assert x.m % p != 0


@st.composite
def built_values(draw, p, n):
    """A value at precision n from one of the public constructors."""
    kind = draw(st.sampled_from(["zero", "one", "int", "rational",
                                 "fraction", "parse"]))
    k = draw(st.integers(-10**9, 10**9))
    den = draw(st.integers(1, 10**4))
    if kind == "zero":
        return PAdicValue.zero(p, n)
    if kind == "one":
        return PAdicValue.one(p, n)
    if kind == "int":
        return PAdicValue.from_int(k, p, n)
    if kind == "rational":
        return PAdicValue.from_rational(k, den, p, n)
    if kind == "fraction":
        return PAdicValue.from_fraction(Fraction(k, den), p, n)
    low = PAdicValue.from_rational(k, den, p, draw(st.integers(1, n)))
    return PAdicValue.parse(low.qp_str(), n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_invariant_kept_by_constructors_and_operators(data):
    # 0 <= m < p**n, lowest digit nonzero, zero stored as (v=0, m=0),
    # whatever built the value, with operands at mixed precision
    p = data.draw(st.sampled_from(PRIMES))
    n1, n2 = data.draw(st.integers(1, N)), data.draw(st.integers(1, N))
    x, y = data.draw(built_values(p, n1)), data.draw(built_values(p, n2))
    n = min(n1, n2)
    assert_invariant(x, p, n1)
    assert_invariant(y, p, n2)
    for z in (x + y, y + x, x - y, y - x, x * y, y * x):
        assert_invariant(z, p, n)
    for z in (-x, x**3, x.scale_pow(2), digit_prefix(x, n1 // 2)):
        assert_invariant(z, p, n1)
    if not y.is_zero:
        assert_invariant(x / y, p, n)
        assert_invariant(y.inv(), p, n2)
        assert_invariant(y**-2, p, n2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sum_and_difference_are_the_rounded_exact_rationals(data):
    # one rule for + and -: the exact rational sum or difference, rounded
    # to the lower precision of the operands
    p = data.draw(st.sampled_from(PRIMES))
    n1, n2 = data.draw(st.integers(1, N)), data.draw(st.integers(1, N))
    x, y = data.draw(built_values(p, n1)), data.draw(built_values(p, n2))
    n = min(n1, n2)
    fx, fy = x.as_fraction(), y.as_fraction()
    assert x + y == PAdicValue.from_fraction(fx + fy, p, n)
    assert x - y == PAdicValue.from_fraction(fx - fy, p, n)
    assert x - x == PAdicValue.zero(p, n1)


@pytest.mark.parametrize("p", PRIMES)
def test_sum_rule_at_zero_operands(p):
    x = PAdicValue.from_rational(-7, 3 * p, p, 4)
    fx = x.as_fraction()
    for nz in (2, 4, 6):
        z = PAdicValue.zero(p, nz)
        n = min(4, nz)
        for got, want in ((x + z, fx), (z + x, fx), (x - z, fx),
                          (z - x, -fx)):
            assert got == PAdicValue.from_fraction(want, p, n)
        assert z + z == z - z == z
        if nz >= 4:
            # an operand that has the lower precision comes back as it is
            assert x + z is x and z + x is x and x - z is x
    # x - x is the exact zero; x + (-x) carries out of the mantissa
    assert x - x == PAdicValue.zero(p, 4)
    assert x + -x == PAdicValue(p, 4, x.v + 4, 1)


def test_ball_membership_and_grid():
    p = 5
    ball = BallSpec.unit(p, N)
    assert ball.contains(PAdicValue.from_int(7, p, N))
    assert not ball.contains(PAdicValue.from_rational(1, 5, p, N))
    depth = 3
    assert ball.grid_size(depth) == p**depth
    k = 87
    t = ball.point(k, depth)
    assert ball.index_of(t, depth) == k
    # a nonzero center with a positive radius: one offset per index
    center = PAdicValue.from_rational(7, 3, p, N)
    ball = BallSpec(center, 2)
    for k in range(ball.grid_size(depth)):
        want = center + PAdicValue.from_int(k, p, N).scale_pow(-2)
        assert ball.point(k, depth) == want
    for k in (-1, ball.grid_size(depth)):
        with pytest.raises(ValueError):
            ball.point(k, depth)
    # every index at every radius, with a zero and a nonzero center: the
    # center plus the rounded cell k * p**(-radius_exp)
    for p in (2, 3, 5):
        for r in (0, 1, 2):
            for c in (PAdicValue.zero(p, N),
                      PAdicValue.from_rational(7, 3, p, N)):
                ball = BallSpec(c, r)
                size = ball.grid_size(depth)
                assert size == p ** (r + depth)
                for k in range(size):
                    t = ball.point(k, depth)
                    assert t == c + PAdicValue._from_cell(p, N, k, -r)
                    assert ball.index_of(t, depth) == k
                assert ball.point(0, depth) == c
                for k in (-1, size):
                    with pytest.raises(ValueError, match="out of range"):
                        ball.point(k, depth)


def test_point_checks_the_depth_through_grid_size():
    # a negative total depth has no grid, so no index is in it, not even
    # the center's; past the grid an index is out of range
    ball = BallSpec.unit(3, N)
    for k in (-1, 0, 2):
        with pytest.raises(ValueError,
                           match="depth -1: radius_exp \\+ depth = -1 "
                                 "is negative"):
            ball.point(k, -1)
    assert BallSpec(ball.center, 1).point(0, -1) == ball.center
    for k in (-1, 27):
        with pytest.raises(ValueError, match="grid index out of range"):
            ball.point(k, 3)


def test_value_construction_contract():
    x = PAdicValue(5, N, -2, 7)
    assert x == PAdicValue(p=5, n=N, v=-2, m=7) == PAdicValue(5, N, v=-2, m=7)
    assert (x.p, x.n, x.v, x.m) == (5, N, -2, 7)
    assert not hasattr(x, "__dict__")
    for name in ("p", "n", "v", "m"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1)
    assert (x.p, x.n, x.v, x.m) == (5, N, -2, 7)
    for y in (dataclasses.replace(x), copy.copy(x),
              pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)
    y, want = dataclasses.replace(x, m=8), PAdicValue(5, N, -2, 8)
    assert y == want and hash(y) == hash(want)
    assert repr(x) == x.qp_str() == "QP(p=5,v=-2,d=2 1 0 0 0 0)"


def _trial_division(k):
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(_is_prime(k) == _trial_division(k) for k in range(10**5))


@pytest.mark.parametrize("k", [
    2047, 1373653, 3215031751, 3825123056546413051,  # strong pseudoprimes
    561,                                              # Carmichael number
    318665857834031151167461,     # strong pseudoprime to bases 2 .. 37
])
def test_is_prime_rejects_pseudoprimes(k):
    assert not _is_prime(k)


def test_is_prime_accepts_large_primes():
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**13 - 1) and not _is_prime((2**13 - 1) * (2**61 - 1))


def test_prime_limit_is_refused():
    with pytest.raises(ValueError, match="limit"):
        _is_prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match="limit"):
        PAdicValue.parse(f"QP(p={PRIME_LIMIT},v=0,d=1)")
    assert PAdicValue.parse(f"QP(p={2**61 - 1},v=0,d=1)").p == 2**61 - 1
