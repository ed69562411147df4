import math
import random

import pytest

from padicsde import charexpect
from padicsde.antider import GridFunction
from padicsde.charexpect import (
    character_product_check,
    product_telescoping_moduli,
)
from padicsde.charfun import AngleTally, GaussianSpec
from padicsde.measure import (
    MonteCarloEnsemble,
    cached_sampler,
    level_betas,
    mahler_coefficient_draws,
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
    assert rep.asserted
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


def test_mahler_diagnostic_not_asserted():
    p, depth = 3, 3
    _, psi = setup_grid(p, depth)
    rep = character_product_check(psi, PAdicValue.one(p, N),
                                  PAdicValue.one(p, N), t_index=4,
                                  samples=4000, seed=11, sampler="mahler")
    assert not rep.asserted
    assert rep.defect >= 0.0


def test_partial_products_nonincreasing():
    p, depth = 5, 5
    ball = BallSpec.unit(p, N)
    psi = GridFunction.from_callable(ball, depth,
                                     lambda t: PAdicValue.from_int(2, p, N))
    mods = product_telescoping_moduli(psi, PAdicValue.one(p, N),
                                      PAdicValue.one(p, N),
                                      t_index=ball.grid_size(depth) - 1)
    assert all(b <= a + 1e-15 for a, b in zip(mods, mods[1:]))
    assert all(0.0 < m <= 1.0 for m in mods)


@pytest.mark.parametrize("t_index", [-1, 27, 32])
def test_test_point_outside_the_grid_is_refused(t_index):
    # a 27-point grid: an index outside it names no test point
    _, psi = setup_grid(3, 3)
    one = PAdicValue.one(3, N)
    with pytest.raises(ValueError, match="grid index out of range"):
        character_product_check(psi, one, one, t_index=t_index, samples=10,
                                seed=1)
    with pytest.raises(ValueError, match="grid index out of range"):
        product_telescoping_moduli(psi, one, one, t_index=t_index)


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
              cached_sampler(GaussianSpec.one_dimensional(
                  p, n, beta=betas[level], q=q)))
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
    analytic = (product_telescoping_moduli(psi, gamma, g, t_index, q)
                or [1.0])[-1]
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


def _series_reference(psi, gamma, g, t_index, samples, seed, zetas,
                      q=1.0):
    """The series branch's tally as one add per sample, in PAdicValue
    arithmetic with full draws: the coefficient draws contracted with the
    Mahler increments of every chain step."""
    p, n = psi.p, psi.n
    ball, depth = psi.ball, psi.depth
    tally = AngleTally(p)
    for stream in MonteCarloEnsemble(seed, samples).streams():
        coeffs = mahler_coefficient_draws(zetas, q, p, n, stream)
        acc = PAdicValue.zero(p, n)
        for _level, j, jn, _step in psi.chain_steps(t_index):
            c = gamma * g * psi.values[j]
            if c.is_zero:
                continue
            tj = ball.point(j, depth) - ball.center
            tn = ball.point(jn, depth) - ball.center
            for x, qj, qn in zip(coeffs, mahler_basis(tj, len(zetas))[1:],
                                 mahler_basis(tn, len(zetas))[1:]):
                d = c * (qn - qj)
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
    zetas = standard_zetas(p, N, 6)
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
    # the series branch's integer contraction with reduced draws against
    # value arithmetic with full draws, on random integrands at p = 2, 3, 5
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
        consts = [gamma * g * psi.values[j]
                  for _l, j, _jn, _s in psi.chain_steps(t_index)]
        seen["short_d"] += any(c.n < N for c in consts if not c.is_zero)
        seen["negative_v"] += any(c.v < 0 for c in consts if not c.is_zero)
        seen["p2"] += p == 2
        seen["p5"] += p == 5
    assert all(count >= 3 for count in seen.values()), seen


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
