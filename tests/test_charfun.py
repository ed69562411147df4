import cmath
import hashlib
import math
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicsde import charfun
from padicsde.charfun import (
    AngleTally,
    GaussianSpec,
    ball_probability,
    character,
    gaussian_char,
    product_laws,
    shell_bounds,
    shell_distribution,
    shell_nonnegativity_report,
)
from padicsde.padic import PAdicValue

N = 6
SUPPORTED_GRID = [(p, b, q) for p in (2, 3, 5) for b in (0.1, 1.0, 10.0)
                  for q in (1, 2)]


@st.composite
def bounded_values(draw, p, vmin=-2, vmax=3):
    if draw(st.integers(0, 9)) == 0:
        return PAdicValue.zero(p, N)
    v = draw(st.integers(vmin, vmax))
    m = draw(st.integers(1, p**N - 1).filter(lambda k: k % p != 0))
    return PAdicValue(p, N, v, m)


def test_character_integer_argument_is_trivial():
    p = 5
    g = PAdicValue.from_int(3, p, N)
    x = PAdicValue.from_int(7, p, N)
    assert character(g, x) == 0


def test_character_fractional_example():
    p = 5
    one = PAdicValue.one(p, N)
    x = PAdicValue.from_rational(1, 5, p, N)
    assert character(one, x) == Fraction(1, 5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_character_is_an_angle_in_the_unit_interval(p, data):
    g = data.draw(bounded_values(p))
    x = data.draw(bounded_values(p))
    angle = character(g, x)
    assert type(angle) is Fraction
    assert 0 <= angle < 1
    den = angle.denominator
    while den % p == 0:
        den //= p
    assert den == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_character_additivity(p, data):
    g = data.draw(bounded_values(p))
    x = data.draw(bounded_values(p))
    y = data.draw(bounded_values(p))
    assert character(g, x + y) == (character(g, x) + character(g, y)) % 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_character_additive_in_index(p, data):
    a = data.draw(bounded_values(p))
    b = data.draw(bounded_values(p))
    c = data.draw(bounded_values(p))
    assert character(a + b, c) == (character(a, c) + character(b, c)) % 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_character_conjugation(p, data):
    g = data.draw(bounded_values(p))
    x = data.draw(bounded_values(p))
    assert character(g, -x) == (-character(g, x)) % 1


def test_angle_tally_exact_mean():
    tally = AngleTally(5)
    tally.add_raw(1, 1, 2)      # angle 1/5, twice
    tally.add_raw(0, 0, 3)      # angle 0, three times
    expect = (2 * cmath.exp(2j * math.pi / 5) + 3) / 5
    assert abs(tally.mean() - expect) < 1e-15


def _expanded_stderr(samples):
    """Mean and the larger componentwise standard error of a list of
    complex samples, by the two-pass formula."""
    s = len(samples)
    mu = sum(samples) / s
    if s == 1:
        return mu, 0.0
    sre = sum((z.real - mu.real) ** 2 for z in samples)
    sim = sum((z.imag - mu.imag) ** 2 for z in samples)
    return mu, math.sqrt(max(sre, sim) / (s - 1) / s)


# (p, [(num, kexp, count)], zeros): totals 1, 2, 3, 10 and 12; past one
# sample the imaginary spread is the larger and the mean is off the real axis
@pytest.mark.parametrize("p, angles, zeros", [
    (5, [(1, 1, 1)], 0),
    (5, [(1, 1, 1)], 1),
    (3, [(1, 1, 1), (2, 2, 1)], 1),
    (5, [(1, 1, 4), (3, 2, 3), (0, 0, 1)], 2),
    (7, [(2, 1, 5), (10, 2, 2), (1, 3, 1)], 4),
], ids=["total1", "total2", "total3", "total10", "total12"])
def test_angle_tally_stderr_matches_two_pass_formula(p, angles, zeros):
    tally = AngleTally(p)
    samples = []
    for num, kexp, count in angles:
        tally.add_raw(num, kexp, count)
        samples += [cmath.exp(2j * math.pi * num / p**kexp)] * count
    tally.add_zero(zeros)
    samples += [0j] * zeros
    mean, stderr = tally.mean_stderr()
    want_mean, want_stderr = _expanded_stderr(samples)
    assert tally.total == len(samples)
    assert abs(mean - want_mean) < 1e-15
    assert stderr == pytest.approx(want_stderr, rel=1e-12, abs=1e-15)
    assert (stderr > 0.0) == (len(samples) > 1)


# (p, num, kexp): a nonzero numerator divisible by p, reduced below to the
# angle rnum / p**rkexp in lowest terms
@pytest.mark.parametrize("p, num, kexp, rnum, rkexp", [
    (3, 6, 3, 2, 2),            # 6/27 = 2/9
    (3, 33, 3, 2, 2),           # 33/27 = 1 + 2/9
    (3, -3, 2, 2, 1),           # -3/9 = -1 + 2/3
    (5, 50, 4, 2, 2),           # 50/625 = 2/25
    (2, 12, 5, 3, 3),           # 12/32 = 3/8
    (3, 18, 2, 0, 0),           # 18/9 is an integer: the trivial angle
])
def test_angle_tally_add_raw_reduces_the_angle(p, num, kexp, rnum, rkexp):
    raw, reduced = AngleTally(p), AngleTally(p)
    for tally, a, k in ((raw, num, kexp), (reduced, rnum, rkexp)):
        tally.add_raw(1, 1, 2)
        tally.add_raw(a, k, 3)
    assert raw._counts == reduced._counts
    assert list(raw._counts) == list(reduced._counts)
    assert raw.mean() == reduced.mean()


def test_gaussian_char_basics():
    spec = GaussianSpec(5, N, beta=1.0, q=1)
    h0 = PAdicValue.zero(5, N)
    assert gaussian_char((spec,), (PAdicValue.one(5, N),), h0) == 1.0
    h1 = PAdicValue.one(5, N)
    val = gaussian_char((spec,), (PAdicValue.one(5, N),), h1)
    assert val.real == pytest.approx(math.exp(-1.0))
    assert val.imag == 0.0


def test_gaussian_char_shift_phase():
    p = 5
    gamma = PAdicValue.from_rational(1, 5, p, N)
    spec = GaussianSpec(p, N, beta=2.0, q=1, gamma=gamma)
    h = PAdicValue.one(p, N)
    val = gaussian_char((spec,), (PAdicValue.one(p, N),), h)
    expect = math.exp(-2.0) * cmath.exp(2j * math.pi / 5)
    assert abs(val - expect) < 1e-12


def test_gaussian_char_modulus_bound():
    spec = GaussianSpec(3, N, beta=0.5, q=2)
    one = (PAdicValue.one(3, N),)
    for v in range(-2, 3):
        h = PAdicValue(3, N, v, 1)
        assert abs(gaussian_char((spec,), one, h)) <= 1.0 + 1e-15


def _sweep_values(p, valuations, count, seed):
    """Zero, then ``count`` seeded units times p**v for each valuation v."""
    rng = random.Random(seed)
    out = [PAdicValue.zero(p, N)]
    for v in valuations:
        for _ in range(count):
            m = rng.randrange(1, p**N)
            while m % p == 0:
                m = rng.randrange(1, p**N)
            out.append(PAdicValue(p, N, v, m))
    return out


def _gaussian_char_sweep():
    """repr of gaussian_char over one-dimensional laws, unshifted and
    shifted at valuations -2..1, and product laws with and without shifts,
    at arguments h of valuation -3..2 (below, at and above 0)."""
    for p in (2, 3, 5, 7):
        gammas = _sweep_values(p, (-2, -1, 0, 1), 2, p)
        hs = _sweep_values(p, (-3, -2, -1, 0, 1, 2), 4, 100 + p)
        one = (PAdicValue.one(p, N),)
        for beta in (0.25, 2.0):
            for q in (1, 2):
                for gamma in gammas:
                    spec = GaussianSpec(p, N, beta, q, gamma=gamma)
                    for h in hs:
                        yield repr(gaussian_char((spec,), one, h))
        zetas = _product_zetas(p, 3)
        g = tuple(PAdicValue.one(p, N) for _ in zetas)
        shifted = (PAdicValue(p, N, -1, 1), PAdicValue(p, N, -1, p - 1),
                   PAdicValue(p, N, 0, 1))
        for gammas in (None, shifted):
            laws = product_laws(p, N, zetas, 1.5, gammas=gammas)
            for h in hs:
                yield repr(gaussian_char(laws, g, h))


def test_gaussian_char_values_are_pinned_bit_for_bit():
    # 3800 values: the float path from an exact angle to a complex number
    # must not move a bit, since every artifact that reports a
    # characteristic functional goes through it
    text = "\n".join(_gaussian_char_sweep())
    assert text.count("\n") == 3799
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "42c9f252b501223ed6f8aaf7287c7a2622b5527f6b19817f968972880f4a6e21")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_ultrametric_inequality_of_charfun(p, data):
    # the ultrametric law inside the exponent: |h1+h2|^q <= max(|h1|^q, |h2|^q),
    # hence |mu^g(h1+h2)| >= min over the parts, with equality when the norms
    # of h1 and h2 differ.  Evaluated exactly through valuations.
    spec = GaussianSpec(p, N, beta=1.5, q=1)
    one = (PAdicValue.one(p, N),)
    h1 = data.draw(bounded_values(p))
    h2 = data.draw(bounded_values(p))
    s = h1 + h2
    if not s.is_zero:
        assert h1.is_zero or h2.is_zero or s.v >= min(h1.v, h2.v)
    lhs = abs(gaussian_char((spec,), one, s))
    m1 = abs(gaussian_char((spec,), one, h1))
    m2 = abs(gaussian_char((spec,), one, h2))
    assert lhs >= min(m1, m2) - 1e-15
    if not h1.is_zero and not h2.is_zero and h1.v < h2.v:
        # |h1| > |h2| forces |h1+h2| = |h1| and equality of moduli
        assert s.v == h1.v
        assert lhs == pytest.approx(m1, rel=1e-12)


def test_product_spec_char():
    p, q = 3, 1
    zetas = tuple(PAdicValue.from_int(p**j, p, N) for j in range(1, 5))
    laws = product_laws(p, N, zetas, q)
    assert laws == tuple(GaussianSpec(p, N, z.norm() ** q, q) for z in zetas)
    g = tuple(PAdicValue.one(p, N) for _ in zetas)
    h = PAdicValue.one(p, N)
    b_eff = sum(z.norm() ** q for z in zetas)
    assert gaussian_char(laws, g, h).real == pytest.approx(math.exp(-b_eff))


def test_product_spec_rejects_bad_decay():
    p = 3
    zetas = (PAdicValue.one(p, N), PAdicValue.one(p, N))
    with pytest.raises(ValueError, match="not L_q"):
        product_laws(p, N, zetas, 1)


def _product_zetas(p, count):
    return tuple(PAdicValue.from_int(p**j, p, N) for j in range(1, count + 1))


def test_product_spec_refuses_rising_shifts():
    # norms 1/9, 9, 1/9: the ends agree but the middle rises
    p = 3
    gammas = (PAdicValue(p, N, 2, 1), PAdicValue(p, N, -2, 1),
              PAdicValue(p, N, 2, 1))
    with pytest.raises(ValueError, match="does not decay"):
        product_laws(p, N, _product_zetas(p, 3), 1, gammas=gammas)


def test_product_spec_refuses_shift_count_mismatch():
    p = 3
    with pytest.raises(ValueError, match="one shift per zeta"):
        product_laws(p, N, _product_zetas(p, 2), 1,
                     gammas=(PAdicValue.one(p, N),))


def test_product_spec_accepts_nonincreasing_shifts():
    # norms 9, 9, 1, 1/3, 0: equal neighbours and a zero tail are allowed
    p = 3
    gammas = (PAdicValue(p, N, -2, 1), PAdicValue(p, N, -2, 2),
              PAdicValue.one(p, N), PAdicValue(p, N, 1, 1),
              PAdicValue.zero(p, N))
    laws = product_laws(p, N, _product_zetas(p, 5), 1, gammas=gammas)
    assert tuple(law.gamma for law in laws) == gammas
    # equal norms of 27, where the 1e-15 slack is below half a float step
    gammas = (PAdicValue(p, N, -3, 1), PAdicValue(p, N, -3, 2))
    laws = product_laws(p, N, _product_zetas(p, 2), 1, gammas=gammas)
    assert tuple(law.gamma for law in laws) == gammas


# -- one law per spec -------------------------------------------------------


def test_gaussian_spec_is_one_law():
    assert [f.name for f in fields(GaussianSpec)] == [
        "p", "n", "beta", "q", "gamma"]
    for gone in ("one_dimensional", "product", "is_product", "betas",
                 "zetas", "gammas"):
        assert not hasattr(GaussianSpec, gone), gone
    assert not hasattr(charfun, "_lq_zetas")


def test_omitted_shift_is_the_exact_zero():
    # the same law built two ways is one spec, and so one cache key
    bare = GaussianSpec(3, N, 1, 1)
    full = GaussianSpec(3, N, 1.0, 1, PAdicValue.zero(3, N))
    assert bare == full and hash(bare) == hash(full)
    assert type(bare.beta) is float and bare.gamma.is_zero
    one = PAdicValue.one(3, N)
    assert gaussian_char((bare,), (one,), one) == complex(math.exp(-1.0))
    assert product_laws(3, N, _product_zetas(3, 2), 1) == (
        GaussianSpec(3, N, 1 / 3, 1), GaussianSpec(3, N, 1 / 9, 1))


@pytest.mark.parametrize("beta, q", [
    (math.nan, 1), (math.inf, 1), (-math.inf, 1), (0.0, 1), (0, 1),
    (-1.0, 1), (10**400, 1), (1.0, 0.5), (1.0, 0), (1.0, math.nan)])
def test_gaussian_spec_refuses_a_bad_law(beta, q):
    with pytest.raises(ValueError, match="beta must be finite and positive"
                       if q == 1 else "q must be >= 1"):
        GaussianSpec(3, N, beta, q)


def test_gaussian_spec_accepts_every_finite_positive_beta():
    # the float range's ends, and an integer inside it, stored as floats
    for beta in (5e-324, 1, sys.float_info.max, 10**308):
        assert GaussianSpec(3, N, beta, 1).beta == float(beta)


@pytest.mark.parametrize("others", [
    (GaussianSpec(3, N, 1.0, 2),), (GaussianSpec(3, N + 1, 1.0, 1),),
    (GaussianSpec(5, N, 1.0, 1),), None], ids=["q", "n", "p", "no_law"])
def test_gaussian_char_refuses_laws_of_different_kinds(others):
    laws = () if others is None else (GaussianSpec(3, N, 1.0, 1),) + others
    one = PAdicValue.one(3, N)
    with pytest.raises(ValueError, match="the laws must share p, n and q"):
        gaussian_char(laws, (one,) * len(laws), one)


def test_shell_table_normalization_and_cdf():
    for (p, b, q) in SUPPORTED_GRID:
        spec = GaussianSpec(p, N, beta=b, q=q)
        table = shell_distribution(spec)
        assert table.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0.0 for w in table.weights)
        cdf = table.cdf()
        assert all(b2 >= a2 - 1e-15 for a2, b2 in zip(cdf, cdf[1:]))


@pytest.mark.parametrize("p, b, q", SUPPORTED_GRID)
@pytest.mark.parametrize("span", [(None, None), (-3, 4)],
                         ids=["widened", "fixed"])
def test_shell_table_computes_each_ball_once(monkeypatch, p, b, q, span):
    # the widening loops probe the table's ends; each ball is computed once,
    # and the table equals one built straight from ball_probability
    calls = []

    def counted(spec, m, tail_tol=1e-12):
        calls.append(m)
        return ball_probability(spec, m, tail_tol)

    spec = GaussianSpec(p, N, beta=b, q=q)
    monkeypatch.setattr(charfun, "ball_probability", counted)
    table = shell_distribution(spec, *span)
    monkeypatch.undo()
    lo, hi = table.m_lo, table.m_hi
    assert sorted(calls) == list(range(lo - 1, hi + 1))
    cdfs = [ball_probability(spec, m) for m in range(lo - 1, hi + 1)]
    weights = tuple(0.0 if -1e-12 < w < 0.0 else w
                    for w in (c - a for a, c in zip(cdfs, cdfs[1:])))
    assert table.weights == weights
    assert (table.lower_tail, table.upper_tail) == (cdfs[0], 1.0 - cdfs[-1])


def test_shell_table_refuses_weights_off_the_span():
    spec = GaussianSpec(3, N, beta=1.0, q=1)
    table = shell_distribution(spec, -2, 2)
    assert len(table.weights) == 5
    for weights in (table.weights[:-1], table.weights + (0.0,), ()):
        with pytest.raises(ValueError, match="weights for the shells -2..2"):
            replace(table, weights=weights)
    assert replace(table, m_lo=3, weights=()).rows() == []
    with pytest.raises(ValueError, match="1 weights for the shells 4..2"):
        replace(table, m_lo=4, weights=(1.0,))


def test_shell_nonnegativity_report():
    specs = [GaussianSpec(p, N, beta=b, q=q)
             for (p, b, q) in SUPPORTED_GRID]
    for spec, worst in shell_nonnegativity_report(specs, -25, 25):
        assert worst >= -1e-12, (spec.p, spec.beta, spec.q, worst)


def test_frozen_ball_probability():
    # pinned by an independent plain series loop (see test body)
    total = sum(math.exp(-(2.0**j)) * 2.0**j for j in range(0, -400, -1))
    oracle = 0.5 * total
    assert oracle == pytest.approx(0.5480427915295704, abs=1e-14)
    spec = GaussianSpec(2, N, beta=1.0, q=1)
    assert ball_probability(spec, 0) == pytest.approx(oracle, abs=1e-9)


def test_shell_consistency_with_charfun():
    # shell mixture of within-shell characters reproduces exp(-beta |h|^q)
    p, beta, q = 3, 1.0, 1
    spec = GaussianSpec(p, N, beta=beta, q=q)
    table = shell_distribution(spec, tail_tol=1e-14)
    for hv in (0, 1, -1):
        h = PAdicValue(p, N, hv, 1)
        acc = 0.0
        for m, w in table.rows():
            # uniform-on-shell conditional character value
            if hv >= m:
                cond = 1.0
            elif hv == m - 1:
                cond = -1.0 / (p - 1)
            else:
                cond = 0.0
            acc += w * cond
        assert acc == pytest.approx(math.exp(-beta * float(p) ** (-hv * q)),
                                    abs=1e-7)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
@pytest.mark.parametrize("tail_tol", [1e-12, 1e-300])
def test_shell_bounds_are_the_float_range(p, tail_tol):
    # the edge shells compute; one shell further is refused, not overflowed
    lowest, highest = shell_bounds(p, tail_tol)
    assert lowest < 0 <= highest
    spec = GaussianSpec(p, N, beta=1.0, q=1)
    for lo, hi in ((lowest, lowest + 2), (highest - 2, highest)):
        table = shell_distribution(spec, lo, hi, tail_tol=tail_tol)
        assert all(math.isfinite(w) and w >= 0.0 for w in table.weights)
    for lo, hi in ((lowest - 1, lowest), (highest, highest + 1)):
        with pytest.raises(ValueError, match="float range"):
            shell_distribution(spec, lo, hi, tail_tol=tail_tol)
    with pytest.raises(OverflowError):
        float(p) ** (2 - lowest)
