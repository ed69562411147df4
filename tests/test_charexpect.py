import cmath
import math
import random
from fractions import Fraction

import pytest

from padicsde import charexpect, measure
from padicsde.antider import GridFunction
from padicsde.charexpect import character_product_check
from padicsde.charfun import AngleTally, GaussianSpec, shell_distribution
from padicsde.measure import (
    MonteCarloEnsemble,
    cached_sampler,
    level_betas,
    standard_zetas,
)
from padicsde.padic import BallSpec, PAdicValue, mahler_basis

N = 6


def setup_grid(p, depth):
    ball = BallSpec.unit(p, N)
    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, N))
    return ball, psi


def test_zero_integrand_both_sides_one():
    p, depth = 3, 4
    ball = BallSpec.unit(p, N)
    psi = GridFunction.constant(ball, depth, PAdicValue.zero(p, N))
    rep = character_product_check(psi, PAdicValue.one(p, N),
                                  PAdicValue.one(p, N), t_index=7,
                                  samples=500, seed=1)
    assert rep.analytic == 1.0
    assert rep.empirical == 1.0 + 0j
    assert rep.passed


def test_trivial_character_both_sides_one():
    p, depth = 3, 4
    _, psi = setup_grid(p, depth)
    rep = character_product_check(psi, PAdicValue.zero(p, N),
                                  PAdicValue.one(p, N), t_index=7,
                                  samples=500, seed=2)
    assert rep.analytic == 1.0
    assert rep.empirical == 1.0 + 0j
    assert rep.passed


def test_unit_integrand_at_one_matches_level0_functional():
    # t = 1 has the single level-0 step, so the product is one factor
    p, depth = 5, 4
    _, psi = setup_grid(p, depth)
    samples = 20000
    rep = character_product_check(psi, PAdicValue.one(p, N),
                                  PAdicValue.one(p, N), t_index=1,
                                  samples=samples, seed=3)
    assert rep.analytic.real == pytest.approx(math.exp(-1.0))
    assert rep.passed, (rep.empirical, rep.analytic)


def test_product_check_multi_level_point():
    p, depth = 3, 4
    ball = BallSpec.unit(p, N)
    psi = GridFunction.from_callable(ball, depth,
                                     lambda t: t + PAdicValue.one(p, N))
    samples = 20000
    rep = character_product_check(psi, PAdicValue.one(p, N),
                                  PAdicValue.from_int(2, p, N),
                                  t_index=1 + 2 * 3 + 9, samples=samples,
                                  seed=4)
    assert rep.passed, (rep.empirical, rep.analytic)
    assert 0.0 < abs(rep.analytic) < 1.0


def test_report_determinism():
    p, depth = 3, 3
    _, psi = setup_grid(p, depth)
    a = character_product_check(psi, PAdicValue.one(p, N),
                                PAdicValue.one(p, N), t_index=5,
                                samples=2000, seed=9)
    b = character_product_check(psi, PAdicValue.one(p, N),
                                PAdicValue.one(p, N), t_index=5,
                                samples=2000, seed=9)
    assert a == b


def test_mahler_report_passes():
    # the series report is judged by the same 4/sqrt(S) rule as the tree's
    p, depth = 3, 3
    _, psi = setup_grid(p, depth)
    rep = character_product_check(psi, PAdicValue.one(p, N),
                                  PAdicValue.one(p, N), t_index=4,
                                  samples=4000, seed=11, sampler="mahler")
    assert rep.passed, (rep.empirical, rep.analytic)


@pytest.mark.parametrize("t_index", [-1, 27, 32])
def test_test_point_outside_the_grid_is_refused(t_index):
    # a 27-point grid: an index outside it names no test point
    _, psi = setup_grid(3, 3)
    one = PAdicValue.one(3, N)
    with pytest.raises(ValueError, match="grid index out of range"):
        character_product_check(psi, one, one, t_index=t_index, samples=10,
                                seed=1)


@pytest.mark.parametrize("samples", [0, -3])
def test_no_samples_is_refused_before_any_law_is_built(monkeypatch, samples):
    def no_laws(*args, **kwargs):
        raise AssertionError("a law was built")

    monkeypatch.setattr(charexpect, "path_laws", no_laws)
    _, psi = setup_grid(3, 3)
    one = PAdicValue.one(3, N)
    with pytest.raises(ValueError, match="samples"):
        character_product_check(psi, one, one, t_index=5, samples=samples,
                                seed=1)


def _padic_reference(psi, gamma, g, t_index, samples, seed, q=1.0):
    """The tree estimator in PAdicValue arithmetic, one draw per chain
    step and one tally add per sample; also counts the sums whose exact
    value lost low digits."""
    p, n = psi.p, psi.n
    betas = level_betas(psi.ball, psi.depth, q)
    steps = [(gamma * g * psi.values[j],
              cached_sampler(GaussianSpec(p, n, beta=betas[level], q=q)))
             for level, j, _jn, _step in psi.chain_steps(t_index)]
    tally = AngleTally(p)
    cancelled = 0
    for stream in MonteCarloEnsemble(seed, samples).streams():
        acc = PAdicValue.zero(p, n)
        for c, sampler in steps:
            x = sampler.draw(stream)
            if c.is_zero:
                continue
            term = c * x
            new = acc + term
            cancelled += not acc.is_zero and new.v > min(acc.v, term.v)
            acc = new
        tally.add_raw(acc.m, -acc.v)
    empirical, stderr = tally.mean_stderr()
    analytic = math.prod(math.exp(-sampler.spec.beta * c.norm() ** q)
                         for c, sampler in steps)
    tol = 4.0 / math.sqrt(samples)
    passed = (abs(empirical.real - analytic) <= tol
              and abs(empirical.imag) <= tol)
    return empirical, stderr, passed, [c for c, _ in steps], cancelled, tally


def _identity(ball):
    return GridFunction.from_callable(ball, 3, lambda t: t)


def _mixed_precision(ball):
    # values at precisions 1..N with valuations wherever p divides k + 1
    p = ball.p
    return GridFunction(ball, 3, tuple(
        PAdicValue.from_int(k + 1, p, 1 + k % N)
        for k in range(ball.grid_size(3))))


@pytest.mark.parametrize("p, make_psi, gamma, g, t_digits, feature", [
    (2, _identity, (0, 1), (0, 1), (1, 1, 1), "zero_c"),
    (3, _identity, (-1, 2), (1, 4), (1, 2, 2), "zero_c"),
    (5, _mixed_precision, (-3, 7), (-1, 3), (3, 0, 4), "mixed"),
    (3, lambda b: GridFunction.constant(b, 3, PAdicValue.one(3, N)),
     (-2, 5), (0, 1), (2, 1, 2), "low_gamma"),
    (2, lambda b: GridFunction.constant(b, 3, PAdicValue.one(2, N)),
     (0, 1), (0, 3), (1, 1, 1), "cancel"),
])
def test_tree_loop_matches_padic_reference(p, make_psi, gamma, g, t_digits,
                                           feature):
    ball = BallSpec.unit(p, N)
    psi = make_psi(ball)
    gamma_n = 3 if feature == "low_gamma" else N
    gamma = PAdicValue(p, gamma_n, *gamma)
    g = PAdicValue(p, N, *g)
    t_index = sum(d * p**i for i, d in enumerate(t_digits))
    samples, seed = 3000, 17 + p
    empirical, stderr, passed, consts, cancelled, _ = _padic_reference(
        psi, gamma, g, t_index, samples, seed)
    rep = character_product_check(psi, gamma, g, t_index, samples, seed)
    assert (rep.empirical, rep.stderr, rep.passed) == \
        (empirical, stderr, passed)
    # the case exercises what it is named for
    nonzero = [c for c in consts if not c.is_zero]
    assert len(nonzero) >= 2
    if feature == "zero_c":
        assert any(c.is_zero for c in consts)
    if feature == "mixed":
        # a later term is more precise than the running sum
        assert nonzero[-1].n > nonzero[0].n
        assert any(c.v != 0 for c in nonzero)
    if feature == "low_gamma":
        assert all(c.n == 3 for c in nonzero)
    if feature == "cancel":
        assert cancelled > 0


def _random_case(rng):
    """A random integrand on a random ball: zeros, precisions below N and
    valuations of both signs, at p = 2 (where every equal-valuation sum
    carries), 3 and 5."""
    p = rng.choice((2, 3, 5))
    ball = BallSpec(PAdicValue.zero(p, N), rng.choice((0, 1)))

    def value(zero_weight):
        if rng.random() < zero_weight:
            return PAdicValue.zero(p, N)
        n = rng.randint(1, N)
        m = rng.randrange(1, p**n)
        while m % p == 0:
            m = rng.randrange(1, p**n)
        return PAdicValue(p, n, rng.randint(-3, 3), m)

    size = ball.grid_size(3)
    psi = GridFunction(ball, 3, tuple(value(0.2) for _ in range(size)))
    return psi, value(0.05), value(0.0), rng.randrange(1, size)


def test_lazy_tree_loop_matches_eager_reference():
    rng = random.Random(2024)
    seen = {"zero_c": 0, "short_c": 0, "negative_v": 0, "positive_v": 0,
            "p2_carry": 0}
    for case in range(120):
        psi, gamma, g, t_index = _random_case(rng)
        empirical, stderr, passed, consts, cancelled, _ = _padic_reference(
            psi, gamma, g, t_index, 150, case)
        rep = character_product_check(psi, gamma, g, t_index, 150, case)
        assert (rep.empirical, rep.stderr, rep.passed) == \
            (empirical, stderr, passed), case
        nonzero = [c for c in consts if not c.is_zero]
        seen["zero_c"] += len(nonzero) < len(consts)
        seen["short_c"] += any(c.n < N for c in nonzero)
        seen["negative_v"] += any(c.v < 0 for c in nonzero)
        seen["positive_v"] += any(c.v > 0 for c in nonzero)
        seen["p2_carry"] += psi.p == 2 and cancelled > 0
    assert all(count >= 5 for count in seen.values()), seen


def _mahler_sums(psi, gamma, g, t_index, count):
    """D_m = sum_j c_j (Q_m(t_{j+1}) - Q_m(t_j)) for m = 1..count over the
    chain of t, in PAdicValue arithmetic; a zero term is left out."""
    p, n = psi.p, psi.n
    ball, depth = psi.ball, psi.depth
    sums = [PAdicValue.zero(p, n)] * count
    for _level, j, jn, _step in psi.chain_steps(t_index):
        c = gamma * g * psi.values[j]
        if c.is_zero:
            continue
        tj = ball.point(j, depth) - ball.center
        tn = ball.point(jn, depth) - ball.center
        for i, (qj, qn) in enumerate(zip(mahler_basis(tj, count)[1:],
                                         mahler_basis(tn, count)[1:])):
            d = c * (qn - qj)
            if not d.is_zero:
                sums[i] = sums[i] + d
    return sums


def _series_reference(psi, gamma, g, t_index, samples, seed, zetas,
                      q=1.0):
    """The series branch's tally as one add per sample, in PAdicValue
    arithmetic with full draws: sum_m x_m D_m over the coefficient draws."""
    p, n = psi.p, psi.n
    sums = _mahler_sums(psi, gamma, g, t_index, len(zetas))
    laws = measure.path_laws("mahler", psi.ball, psi.depth, q, zetas=zetas)
    tally = AngleTally(p)
    for stream in MonteCarloEnsemble(seed, samples).streams():
        acc = PAdicValue.zero(p, n)
        for x, d in zip([law.draw(stream) for law in laws], sums):
            if not d.is_zero:
                acc = acc + x * d
        tally.add_raw(acc.m, -acc.v)
    return tally


@pytest.mark.parametrize("p, make_psi, gamma, t_digits, seed, sampler", [
    (2, _identity, (0, 6, 1), (1, 1, 1), 2**64 - 1, "tree"),
    (3, lambda b: GridFunction.constant(b, 3, PAdicValue.one(3, N)),
     (-1, 3, 2), (2, 0, 1), 31, "tree"),
    (5, _mixed_precision, (2, 4, 7), (3, 1, 4), 2**64 - 1, "tree"),
    (3, _identity, (0, 6, 1), (1, 2, 2), 2**64 - 1, "mahler"),
    (2, lambda b: GridFunction.constant(b, 3, PAdicValue.one(2, N)),
     (-1, 4, 3), (1, 0, 1), 8, "mahler"),
])
def test_per_key_tally_matches_per_sample_adds(monkeypatch, p, make_psi,
                                               gamma, t_digits, seed,
                                               sampler):
    # counting each sum's key and tallying the keys once, with their
    # counts, leaves the tally exactly as one add per sample would
    made = []

    class Recording(AngleTally):
        def __init__(self, prime):
            super().__init__(prime)
            made.append(self)

    monkeypatch.setattr(charexpect, "AngleTally", Recording)
    ball = BallSpec.unit(p, N)
    psi = make_psi(ball)
    v, n_gamma, m = gamma
    gamma = PAdicValue(p, n_gamma, v, m)
    g = PAdicValue.one(p, N)
    t_index = sum(d * p**i for i, d in enumerate(t_digits))
    # the tree sampler takes no zetas
    zetas = standard_zetas(p, N, 6) if sampler == "mahler" else None
    rep = character_product_check(psi, gamma, g, t_index, 400, seed,
                                  sampler=sampler, zetas=zetas)
    if sampler == "tree":
        want = _padic_reference(psi, gamma, g, t_index, 400, seed)[-1]
    else:
        want = _series_reference(psi, gamma, g, t_index, 400, seed, zetas)
    (got,) = made
    assert list(got._counts.items()) == list(want._counts.items())
    assert got.total == want.total == 400
    assert repr((rep.empirical, rep.stderr)) == repr(want.mean_stderr())
    # the case holds a zero c, or a nonzero c.v below full precision
    consts = [gamma * g * psi.values[j]
              for _l, j, _jn, _s in psi.chain_steps(t_index)]
    assert any(c.is_zero for c in consts) or \
        any(c.v != 0 and c.n < N for c in consts)
    assert len(got._counts) > 1


def test_series_loop_matches_per_sample_reference():
    # the series branch's integer sum with reduced draws against value
    # arithmetic with full draws, on random integrands at p = 2, 3, 5
    rng = random.Random(77)
    seen = {"short_d": 0, "negative_v": 0, "p2": 0, "p5": 0}
    for case in range(40):
        psi, gamma, g, t_index = _random_case(rng)
        while psi.ball.radius_exp:      # the Mahler basis lives on Z_p
            psi, gamma, g, t_index = _random_case(rng)
        p = psi.p
        zetas = standard_zetas(p, N, rng.randint(2, 6))
        seed = rng.choice((case, 2**64 - 1 - case))
        rep = character_product_check(psi, gamma, g, t_index, 120, seed,
                                      sampler="mahler", zetas=zetas)
        want = _series_reference(psi, gamma, g, t_index, 120, seed, zetas)
        assert repr((rep.empirical, rep.stderr)) == \
            repr(want.mean_stderr()), case
        laws = measure.path_laws("mahler", psi.ball, psi.depth, 1.0,
                                 zetas=zetas)
        assert rep.analytic == math.prod(
            math.exp(-law.spec.beta * d.norm())
            for law, d in zip(laws, _mahler_sums(psi, gamma, g, t_index,
                                                 len(laws)))), case
        consts = [gamma * g * psi.values[j]
                  for _l, j, _jn, _s in psi.chain_steps(t_index)]
        seen["short_d"] += any(c.n < N for c in consts if not c.is_zero)
        seen["negative_v"] += any(c.v < 0 for c in consts if not c.is_zero)
        seen["p2"] += p == 2
        seen["p5"] += p == 5
    assert all(count >= 3 for count in seen.values()), seen


def _constant(ball, depth):
    return GridFunction.constant(ball, depth, PAdicValue.one(ball.p, N))


def _shifted(ball, depth):
    return GridFunction.from_callable(
        ball, depth, lambda t: t + PAdicValue.one(ball.p, N))


@pytest.mark.parametrize("p, depth, make_psi, gamma, g, t_index, seed, q", [
    # demo 07's point
    (3, 5, _constant, (0, 1), (0, 1), 1 + 2 * 3 + 9 + 2 * 81, 1, 1.0),
    (2, 5, _shifted, (0, 1), (0, 1), 1 + 2 + 4 + 16, 2, 1.0),
    (5, 3, _constant, (0, 1), (0, 2), 1 + 2 * 5 + 3 * 25, 3, 1.0),
    (3, 4, _shifted, (-1, 1), (0, 1), 1 + 2 * 3 + 9 + 2 * 27, 4, 1.0),
    (5, 4, _shifted, (0, 1), (0, 1), 1 + 5 + 3 * 125, 5, 2.0),
])
def test_series_estimator_exact_target(p, depth, make_psi, gamma, g, t_index,
                                       seed, q):
    # The series chain sum is sum_m X_m D_m with independent coefficients
    # X_m, so its expected character is prod_m E[chi(X_m D_m)] =
    # prod_m exp(-beta_m |D_m|**q), with D_m built from the Mahler basis
    # here, apart from the estimator.
    ball = BallSpec.unit(p, N)
    psi = make_psi(ball, depth)
    gamma, g = PAdicValue(p, N, *gamma), PAdicValue(p, N, *g)
    laws = measure.path_laws("mahler", ball, depth, q)
    target = math.prod(
        math.exp(-law.spec.beta * d.norm() ** q)
        for law, d in zip(laws, _mahler_sums(psi, gamma, g, t_index,
                                             len(laws))))
    samples = 20000
    rep = character_product_check(psi, gamma, g, t_index, samples, seed, q=q,
                                  sampler="mahler")
    tol = 4.0 / math.sqrt(samples)
    assert abs(rep.empirical.real - target) <= tol, (rep.empirical, target)
    assert abs(rep.empirical.imag) <= tol, rep.empirical
    # the report's own target is this product, and the report passes
    assert rep.analytic == target
    assert rep.passed


@pytest.mark.parametrize("sampler", ["tree", "mahler"])
def test_one_sample_is_accepted(sampler):
    # the least sample count: one character value, of modulus one, with no
    # spread and the widest gate
    _, psi = setup_grid(3, 3)
    one = PAdicValue.one(3, N)
    rep = character_product_check(psi, one, one, t_index=5, samples=1,
                                  seed=1, sampler=sampler)
    assert rep.samples == 1
    assert (rep.stderr, rep.tolerance) == (0.0, 4.0)
    assert abs(rep.empirical) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("center", [1, 5])
def test_report_does_not_depend_on_the_center(center):
    # chains, laws and draws are indexed relative to the ball's center
    p, depth = 3, 3
    one = PAdicValue.one(p, N)
    reps = []
    for c in (0, center):
        ball = BallSpec(PAdicValue.from_int(c, p, N), 0)
        psi = GridFunction.constant(ball, depth, one)
        reps.append(character_product_check(psi, one, one, t_index=23,
                                            samples=500, seed=4))
    assert reps[0] == reps[1]


# -- the exact as-coded target of the tree estimator --------------------------


def _frac(x):
    """The fractional part of x: its digits below valuation 0."""
    if x.v >= 0:
        return Fraction(0)
    return Fraction(x.m % x.p ** -x.v, x.p ** -x.v)


def test_sum_keeps_every_digit_below_zero_within_n_valuations():
    # the condition under which the tree estimator's chain sum is a product
    # of characters: a sum at precision n of two values of valuation >= -n
    # has valuation >= -n, so its n-digit window holds every digit below 0,
    # and a carry or a truncation moves only digits at valuations >= 0
    p, n = 3, N
    rng = random.Random(9)

    def value():
        m = rng.randrange(1, p ** n)
        while m % p == 0:
            m = rng.randrange(1, p ** n)
        return PAdicValue(p, n, rng.randint(-n, 2), m)

    for _ in range(3000):
        x, y = value(), value()
        assert _frac(x + y) == (_frac(x) + _frac(y)) % 1, (x, y)


def _residue_counts(modulus):
    """How many of the 2**64 outputs u leave each residue u % modulus."""
    q, r = divmod(1 << 64, modulus)
    return [q + (i < r) for i in range(modulus)]


def _coded_char(sampler, top):
    """E[chi(X) 1{|X| <= p**top}] for one tree draw X as
    ``character_product_check`` reads it at c = 1 (cut 0), and the number
    of angles it sums.

    The weights are exact ``Fraction`` counts of the 2**64 values of each
    output, the outputs taken as independent: u1 picks shell i for
    ``count_i * 2**11`` of its values (every bound is a multiple of 2**11),
    the lead digit is 1 + u2 % (p - 1) and the rest u3 % p**(k - 1), with
    k = min(m, n) digits read on shell m.  Each angle's weight is summed
    exactly; only the final sum over angles is complex.
    """
    p, n = sampler.spec.p, sampler.spec.n
    top53 = 1 << 53
    units = [min(b >> 11, top53) for b in sampler._bounds]
    counts = [b - a for a, b in zip([0] + units, units)]
    counts[-1] += top53 - units[-1]
    weights = {}
    for m, count in zip(sampler.shells, counts):
        if m > top or not count:
            continue
        shell = Fraction(count, top53)
        if m <= 0:      # no digit below 0 is read: the character is 1
            weights[0] = weights.get(0, 0) + shell
            continue
        k = min(m, n)
        rest = _residue_counts(p ** (k - 1)) if k >= 2 else [1 << 64]
        for d, c_lead in enumerate(_residue_counts(p - 1), 1):
            for r, c_rest in enumerate(rest):
                a = Fraction(d + p * r, p ** m) % 1
                weights[a] = weights.get(a, 0) + shell * Fraction(
                    c_lead * c_rest, 1 << 128)
    return sum(float(w) * cmath.exp(2j * math.pi * a)
               for a, w in sorted(weights.items())), len(weights)


def test_tree_estimator_exact_target_at_criterion_9():
    # Criterion 9's points.  With psi = gamma = g = 1 a sample's sum S adds
    # one draw X_l per nonzero-digit chain step, each read below valuation
    # 0, in PAdicValue arithmetic at precision n
    # (``test_tree_loop_matches_padic_reference``).
    #
    # On the event E that every drawn shell is at most n, every term has
    # valuation >= -n, so chi(S) = prod chi(X_l)
    # (``test_sum_keeps_every_digit_below_zero_within_n_valuations``), and
    # with independent draws E[chi(S) 1_E] = prod A_l, A_l = E[chi(X_l)
    # 1{shell <= n}], exactly.  Each A_l equals the level's analytic factor
    # exp(-beta_l) up to the shell law's distance from the exact one, as
    # in ``test_exact_shell_law_matches_gaussian_char``: the declared tails
    # of the sampler's table, the series cut of each ball probability (at
    # most TAIL_TOL), the 2**-53 grid and cdf roundings, the modulo bias of
    # the digits and one rounding of the exp; plus the rounding of the sum
    # over angles.  A product of factors of modulus at most one moves by at
    # most the sum of its factors' errors.
    #
    # E is not sure: every level's shells reach far above n (the largest
    # is 27 to 32), and off E the sum is not a product, so this bounds
    # the as-coded target only to within P(not E) of prod A_l.
    p, depth, n = 3, N, N
    ball = BallSpec.unit(p, n)
    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, n))
    one = PAdicValue.one(p, n)
    betas = level_betas(ball, depth, 1.0)
    grid = 2.0 ** -53
    factors = {}
    for t in (1, 2, 4, 16, 3**5 + 3 + 2):
        levels = [level for level, *_ in psi.chain_steps(t)]
        target, tol = 1, 0.0
        for level in levels:
            if level not in factors:
                spec = GaussianSpec(p, n, beta=betas[level], q=1.0)
                sampler = cached_sampler(spec)
                table = shell_distribution(spec, tail_tol=measure.TAIL_TOL)
                gap = (table.lower_tail + table.upper_tail + measure.TAIL_TOL
                       + (1 + 2 * len(sampler.shells)) * grid)
                bias = 2 * p ** (n - 1) / 2.0 ** 64
                a, angles = _coded_char(sampler, n)
                factors[level] = a, 3 * gap + bias + (1 + 4 * angles) * grid
            a, level_tol = factors[level]
            target *= a
            tol += level_tol
        tol += 4 * len(levels) * grid     # the two products' roundings
        analytic = character_product_check(psi, one, one, t, samples=1,
                                           seed=1).analytic.real
        assert abs(target - analytic) <= tol, (t, target, analytic, tol)
