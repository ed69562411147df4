import bisect
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicsde import measure
from padicsde.antider import GridFunction, _tree_scan
from padicsde.charexpect import (
    character_product_check,
    product_telescoping_moduli,
)
from padicsde.charfun import (
    AngleTally,
    GaussianSpec,
    _lq_spreads,
    gaussian_char,
    product_laws,
    shell_distribution,
)
from padicsde.measure import (
    Gaussian1DSampler,
    MonteCarloEnsemble,
    RandomStream,
    derive_seed,
    level_betas,
    mahler_coefficient_draws,
    mix64,
    path_laws,
    sample_gaussian,
    sample_wiener_mahler,
    sample_wiener_tree,
    standard_zetas,
    wiener_path,
)
from padicsde.padic import BallSpec, PAdicValue, frac_part, mahler_poly

N = 6


def empirical_char(spec, h, size, seed):
    """Empirical mean of the character chi_h over fresh samples."""
    sampler = Gaussian1DSampler(spec)
    tally = AngleTally(spec.p)
    ens = MonteCarloEnsemble(seed, size)
    shift_trivial = spec.gamma.is_zero
    p = spec.p
    for stream in ens.streams():
        if shift_trivial and not h.is_zero:
            v, mant = sampler.draw_raw(stream)
            k = -(h.v + v)
            if k <= 0:
                tally.add_raw(0, 0)
            else:
                tally.add_raw((h.m * mant) % p**k, k)
        else:
            x = sampler.draw(stream)
            prod = h * x
            fr = frac_part(prod)
            kexp = 0
            den = fr.denominator
            while den > 1:
                den //= p
                kexp += 1
            tally.add_raw(fr.numerator * p**kexp // fr.denominator, kexp)
    return tally.mean()


def test_mix64_and_seed_derivation_are_stable():
    # frozen outputs of the published SplitMix64 constants
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert derive_seed(0, 0) == mix64(0x9E3779B97F4A7C15)
    s = RandomStream(42)
    assert [s.u64() % 1000 for _ in range(4)] == [
        RandomStream(42).u64() % 1000,
        *(lambda t: [t.u64() % 1000 for _ in range(3)])(
            (lambda r: (r.u64(), r)[1])(RandomStream(42))),
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_draw_raw_stream_layout(p):
    # a draw is three successive u64 outputs: (u >> 11) / 2**53 picks the
    # shell by inverse CDF, 1 + u % (p-1) the leading digit and
    # u % p**(N-1) the remaining digits
    sampler = Gaussian1DSampler(
        GaussianSpec(p, N, beta=1.0, q=1))
    shells = set()
    for seed in range(300):
        stream, ref = RandomStream(seed), RandomStream(seed)
        u = (ref.u64() >> 11) / 2**53
        i = bisect.bisect_right(sampler.cumulative, u)
        shell = sampler.shells[min(i, len(sampler.shells) - 1)]
        lead = 1 + ref.u64() % (p - 1)
        rest = ref.u64() % p ** (N - 1)
        assert sampler.draw_raw(stream) == (-shell, lead + p * rest)
        assert stream.state == ref.state == \
            (seed + 3 * 0x9E3779B97F4A7C15) % 2**64
        shells.add(shell)
    assert len(shells) > 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_draw_raw_cut_reads_the_full_draw(p):
    # a cut changes only which outputs are mixed and which digits are
    # kept: the shell and the stream state are those of the full draw, the
    # mantissa is the full one mod p**need, and with no digit read it is
    # the unit 1
    sampler = Gaussian1DSampler(
        GaussianSpec(p, N, beta=3.0, q=1))
    # shell_only is the largest cut that reads no digit on any shell
    assert max(sampler.shells) + sampler.shell_only == 0
    shells = set()
    for seed in range(200):
        full = RandomStream(seed)
        v, mant = sampler.draw_raw(full)
        shells.add(v)
        for need in range(-2, N + 2):
            stream = RandomStream(seed)
            got_v, got_mant = sampler.draw_raw(stream, v + need)
            assert (got_v, stream.state) == (v, full.state)
            if need <= 0:
                assert got_mant == 1
            else:
                assert got_mant == mant % p**need, (seed, need)
        stream = RandomStream(seed)
        assert sampler.draw_raw(stream, sampler.shell_only) == (v, 1)
        assert stream.state == full.state
    assert len(shells) > 3


def _reference_draw_raw(sampler, stream, cut=None):
    """The draw as a sequence of ``mix64`` calls: the float inverse CDF
    and the digit count ``k = cut + m`` worked out per draw."""
    p, n = sampler.spec.p, sampler.spec.n
    golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    s1 = (stream.state + golden) & mask
    s2 = (s1 + golden) & mask
    stream.state = s3 = (s2 + golden) & mask
    shells = sampler.shells
    i = bisect.bisect_right(sampler.cumulative,
                            (mix64(s1) >> 11) * (1.0 / (1 << 53)))
    m = shells[i] if i < len(shells) else shells[-1]
    if cut is None:
        return -m, 1 + mix64(s2) % (p - 1) + p * (mix64(s3) % p**(n - 1))
    k = cut + m
    if k < 2:
        return -m, 1 if k < 1 else 1 + mix64(s2) % (p - 1)
    rest = p**(k - 1) if k < n else p**(n - 1)
    return -m, 1 + mix64(s2) % (p - 1) + p * (mix64(s3) % rest)


def _unmix64(u):
    """The z with mix64(z) == u: each xorshift and odd multiplier of the
    finalizer undone in reverse order."""
    mask = 2**64 - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(u, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & mask, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask, 30)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_draw_raw_matches_reference_at_every_cut(p):
    # the per-cut row table and the inline finalizer against the draw
    # written out with mix64, from stream states on both sides of 2**64
    # and from states whose shell output sits on either side of a cdf step
    golden = 0x9E3779B97F4A7C15
    sampler = Gaussian1DSampler(
        GaussianSpec(p, N, beta=2.0, q=1))
    states = [0, 1, 12345, 2**63, *range(2**64 - 40, 2**64)]
    states += [(2**64 - j * golden + d) % 2**64
               for j in (1, 2, 3) for d in range(-20, 20)]
    states += [mix64(i) for i in range(300)]
    for c in sampler.cumulative:
        step = math.ceil(c * 2**53) << 11     # the least u1 at or past c
        for u1 in (step - 1, step, step + 2**11 - 1, step + 2**11):
            if 0 <= u1 < 2**64:
                assert mix64(_unmix64(u1)) == u1
                states.append((_unmix64(u1) - golden) % 2**64)
    # every shell sees no digit, the lead digit only and all n digits
    cuts = [None, *range(sampler.shell_only - 1,
                         N + 2 - min(sampler.shells))]
    assert set(range(sampler.shell_only - 1, N + 2)) <= set(cuts)
    shells = set()
    for state in states:
        for cut in cuts:
            stream, ref = RandomStream(state), RandomStream(state)
            want = _reference_draw_raw(sampler, ref, cut)
            assert sampler.draw_raw(stream, cut) == want, (state, cut)
            assert stream.state == ref.state
        shells.add(want[0])
    assert len(shells) > 4


def test_estimators_call_draw_raw_once_per_draw(monkeypatch):
    # the benchmark counts draws as draw_raw calls; an estimator that drew
    # without calling it would undercount
    calls = [0]
    draw_raw = Gaussian1DSampler.draw_raw

    def counting(self, stream, *outputs):
        calls[0] += 1
        return draw_raw(self, stream, *outputs)

    monkeypatch.setattr(Gaussian1DSampler, "draw_raw", counting)
    p, size = 3, 500
    spec = GaussianSpec(p, N, beta=1.0, q=1)
    measure.empirical_char(spec, [PAdicValue(p, N, v, 1) for v in (-1, 1)],
                           size, 4)
    assert calls[0] == size
    measure.norm_histogram(spec, size, 5)
    assert calls[0] == 2 * size
    calls[0] = 0
    ball, depth = BallSpec.unit(p, N), 3
    sample_wiener_tree(level_betas(ball, depth, 1.0), 1.0, ball, depth,
                       RandomStream(6))
    assert calls[0] == p**depth - 1
    calls[0] = 0
    psi = GridFunction.constant(ball, depth, PAdicValue.one(p, N))
    t_index = 1 + 2 * p**2       # two nonzero digits, two chain steps
    character_product_check(psi, PAdicValue.one(p, N), PAdicValue.one(p, N),
                            t_index, size, 7)
    assert calls[0] == size * 2
    calls[0] = 0
    # the series branch draws every coefficient once per sample
    character_product_check(psi, PAdicValue.one(p, N), PAdicValue.one(p, N),
                            t_index, size, 8, sampler="mahler",
                            zetas=standard_zetas(p, N, 4))
    assert calls[0] == size * 4


def _eager_empirical_char(spec, hs, size, seed):
    """The estimator sample by sample with full draws: one tally update
    per sample and h."""
    sampler = Gaussian1DSampler(spec)
    p, n = spec.p, spec.n
    tallies = [AngleTally(p) for _ in hs]
    shifted = not spec.gamma.is_zero
    for stream in MonteCarloEnsemble(seed, size).streams():
        v, mant = sampler.draw_raw(stream)
        for h, tally in zip(hs, tallies):
            k = -(h.v + v)
            if h.is_zero:
                tally.add_raw(0, 0)
            elif k > n:
                tally.add_zero()
            elif shifted:
                y = h * (PAdicValue(p, n, v, mant) + spec.gamma)
                tally.add_raw(y.m, -y.v)
            elif k <= 0:
                tally.add_raw(0, 0)
            else:
                tally.add_raw((h.m * mant) % p**k, k)
    return {h: tally.mean() for h, tally in zip(hs, tallies)}


def _eager_norm_histogram(spec, size, seed):
    sampler = Gaussian1DSampler(spec)
    counts = {}
    for stream in MonteCarloEnsemble(seed, size).streams():
        v, _ = sampler.draw_raw(stream)
        counts[-v] = counts.get(-v, 0) + 1
    return counts


@pytest.mark.parametrize("p, beta, q", [
    (p, b, q) for p in (2, 3, 5) for b in (0.1, 1.0, 10.0) for q in (1, 2)])
def test_lazy_estimators_match_eager(p, beta, q):
    # criterion 2's grid: the h of the criterion (no digit, the lead digit
    # only, several digits), a window beyond the mantissa, a non-unit-one
    # mantissa and h = 0, plus a shifted law
    hs = [PAdicValue(p, N, v, 1) for v in (0, 1, 2, -1, -2)] + [
        PAdicValue(p, N, -4, 1 + p), PAdicValue(p, N, -3, p**N - 1),
        PAdicValue.zero(p, N)]
    size, seed = 2000, 20_000 + p
    gamma = PAdicValue.from_rational(1, p**2, p, N)
    for spec in (GaussianSpec(p, N, beta=beta, q=q),
                 GaussianSpec(p, N, beta=beta, q=q, gamma=gamma)):
        got = measure.empirical_char(spec, hs, size, seed)
        want = _eager_empirical_char(spec, hs, size, seed)
        assert [repr(got[h]) for h in hs] == [repr(want[h]) for h in hs]
    spec = GaussianSpec(p, N, beta=beta, q=q)
    assert list(measure.norm_histogram(spec, size, seed + 1).items()) == \
        list(_eager_norm_histogram(spec, size, seed + 1).items())


def test_ensemble_determinism():
    ens = MonteCarloEnsemble(123, 16)
    spec = GaussianSpec(5, N, beta=1.0, q=1)
    a = [sample_gaussian(spec, st) for st in ens.streams()]
    b = [sample_gaussian(spec, st) for st in ens.streams()]
    assert a == b
    # per-sample streams are independent of the order they are made in
    c = [sample_gaussian(spec, ens.stream(i)) for i in reversed(range(16))]
    assert list(reversed(c)) == a


@pytest.mark.parametrize("master", [0, 123, 2**63 + 5, 2**64 - 1])
def test_streams_step_the_derived_seeds(master):
    # the counter wraps modulo 2**64 within the first two samples
    size = 50
    ens = MonteCarloEnsemble(master, size)
    streams = list(ens.streams())
    states = [stream.state for stream in streams]
    assert states == [derive_seed(master, i) for i in range(size)]
    assert states == [ens.stream(i).state for i in range(size)]
    assert states == [RandomStream(derive_seed(master, i)).state
                      for i in range(size)]
    # each stream is its own object
    assert len({id(stream) for stream in streams}) == size


def test_sampler_norm_histogram_matches_shells():
    p, beta, q, size = 3, 1.0, 1, 20000
    spec = GaussianSpec(p, N, beta=beta, q=q)
    table = shell_distribution(spec)
    sampler = Gaussian1DSampler(spec)
    counts = {}
    for stream in MonteCarloEnsemble(2024, size).streams():
        v, _ = sampler.draw_raw(stream)
        counts[-v] = counts.get(-v, 0) + 1
    for m, w in table.rows():
        if w < 1e-6:
            continue
        got = counts.get(m, 0) / size
        se = math.sqrt(w * (1 - w) / size)
        assert abs(got - w) <= 4 * se + 1e-9, (m, got, w)


def test_empirical_char_matches_formula():
    size = 20000
    tol = 4 / math.sqrt(size)
    for (p, beta, q) in [(2, 1.0, 1), (5, 0.5, 2)]:
        spec = GaussianSpec(p, N, beta=beta, q=q)
        for hv in (0, 1, -1):
            h = PAdicValue(p, N, hv, 1)
            got = empirical_char(spec, h, size, seed=99)
            want = math.exp(-beta * float(p) ** (-hv * q))
            assert abs(got.real - want) <= tol
            assert abs(got.imag) <= tol


def _shell_counts(sampler):
    """The exact law of a draw's shell as counts over 2**53, one per shell.

    ``draw_raw`` takes shell ``bisect_right(_bounds, u1)`` of a uniform
    64-bit output u1, and every bound is a multiple of 2**11, so the count
    of u1 below a bound, over 2**11, is the bound over 2**11, capped at
    2**53.  The mass past the last bound draws the last shell.
    """
    top = 1 << 53
    assert all(b % (1 << 11) == 0 for b in sampler._bounds)
    units = [min(b >> 11, top) for b in sampler._bounds]
    counts = [b - a for a, b in zip([0] + units, units)]
    counts[-1] += top - units[-1]
    assert min(counts) >= 0 and sum(counts) == top
    return counts


def _exact_char(sampler, h):
    """E[chi(h x)] under the exact shell law with uniform digits.

    On the sphere |x| = p**m the mean of the character is 1, -1/(p - 1)
    or 0 as ``k = m - v(h)`` is at most 0, 1, or at least 2; for k > n that
    0 is also what the estimator counts for the digits no draw holds.
    """
    p = sampler.spec.p
    total = Fraction(0)
    for m, count in zip(sampler.shells, _shell_counts(sampler)):
        k = m - h.v
        if k <= 0:
            total += count
        elif k == 1:
            total -= Fraction(count, p - 1)
    return total / (1 << 53)


@pytest.mark.parametrize("p, beta, q", [
    (p, b, q) for p in (2, 3, 5) for b in (0.1, 1.0, 10.0) for q in (1, 2)])
def test_exact_shell_law_matches_gaussian_char(p, beta, q):
    # criterion 2's points, checked against the law the sampler's bounds
    # encode instead of a Monte Carlo estimate.  Shells up to v(h) add 1
    # and shell v(h) + 1 adds -1/(p - 1), so the oracle and the exact
    # character are both (p F(v) - F(v + 1)) / (p - 1), F(m) being the
    # chance of |x| <= p**m, and differ by at most (p + 1)/(p - 1) <= 3
    # times the largest gap between the two F.  That gap is at most:
    # - TAIL_TOL, the mass the table leaves below its lowest and above its
    #   highest shell (each below TAIL_TOL), drawn as the end shells;
    # - TAIL_TOL, the series cut of each ball probability behind the cdf;
    # - 2**-53 for the grid: each bound rounds its cdf entry up to it;
    # - 2**-53 per shell for each of the two float roundings (difference
    #   and running sum) that build a cdf entry.
    # The draw's digits are u2 % (p - 1) and u3 % p**(n - 1) of 64-bit
    # outputs, off uniform by at most p**(n - 1) / 2**64 in total
    # variation each; that modulo bias, and one rounding of the exp in
    # gaussian_char, are added so that tol bounds the draw itself.
    spec = GaussianSpec(p, N, beta=beta, q=q)
    sampler = Gaussian1DSampler(spec)
    grid = 2.0 ** -53
    gap = 2 * measure.TAIL_TOL + (1 + 2 * len(sampler.shells)) * grid
    bias = 2 * p ** (N - 1) / 2.0 ** 64
    tol = 3 * gap + bias + grid
    for v in (0, 1, 2, -1, -2):
        h = PAdicValue(p, N, v, 1)
        want = gaussian_char((spec,), (PAdicValue.one(p, N),), h)
        assert want.imag == 0.0
        assert abs(float(_exact_char(sampler, h)) - want.real) <= tol, v


@pytest.mark.parametrize("p, beta, q", [
    (p, b, q) for p in (2, 3, 5) for b in (0.1, 1.0, 10.0) for q in (1, 2)])
def test_exact_shell_law_matches_the_shell_tables(p, beta, q):
    # criterion 4's grid.  The oracle is the shell law the sampler's bounds
    # encode; it is compared shell by shell with the table the sampler is
    # built from and with criterion 4's table (the default tail_tol).
    #
    # Against the sampler's own table, at tail_tol TAIL_TOL: the first shell
    # also draws the lower tail and the last the upper tail.  A bound is
    # the cdf entry rounded up to the 2**-53 grid (capped at 1, which moves
    # it by at most the overshoot of the cdf past 1), and each cdf entry is
    # the previous one plus the weight, rounded once (at most 2**-53, since
    # the cdf stays below 2).  So an inner shell is off by at most two
    # grid roundings and one sum rounding, the first shell by one of each,
    # and the last shell, drawn as 1 minus the second-to-last bound, by the
    # grid rounding plus every earlier sum rounding and every rounding of a
    # weight ``cdf_m - cdf_prev`` and of the upper tail ``1 - cdf_hi``.
    spec = GaussianSpec(p, N, beta=beta, q=q)
    sampler = Gaussian1DSampler(spec)
    counts = _shell_counts(sampler)
    own = shell_distribution(spec, tail_tol=measure.TAIL_TOL)
    assert [m for m, _ in own.rows()] == sampler.shells
    grid = Fraction(1, 1 << 53)
    over = max(Fraction(max(sampler.cumulative)) - 1, 0)
    last = len(counts) - 1
    law = [Fraction(c, 1 << 53) for c in counts]
    for i, (m, w) in enumerate(own.rows()):
        want = Fraction(w)
        if i == 0:
            want += Fraction(own.lower_tail)
            tol = 2 * grid + over
        elif i < last:
            tol = 3 * grid + over
        else:
            want += Fraction(own.upper_tail)
            tol = (3 + 2 * len(counts)) * grid + over
        assert abs(law[i] - want) <= tol, (m, float(law[i] - want))

    # Against criterion 4's table: the same ball probabilities, with the
    # series cut at a larger tail_tol.  Both series add the same terms in
    # the same order up to the earlier cut, so a ball probability moves by
    # at most the two cuts (each below its tail_tol, the probability being
    # at most 1) plus one rounding per extra term; the larger cut has at
    # most log_p(default / TAIL_TOL) + 1 extra terms, each p times smaller
    # than the one before.  A weight differences two ball probabilities,
    # rounded once; a tail is one.  Criterion 4's shells lie inside the
    # sampler's, whose extra shells hold criterion 4's tails.
    default = inspect.signature(shell_distribution).parameters[
        "tail_tol"].default
    crit4 = shell_distribution(spec)
    extra = math.ceil(math.log(default / measure.TAIL_TOL, p)) + 1
    ball = Fraction(default + measure.TAIL_TOL) + extra * grid
    assert own.m_lo <= crit4.m_lo and crit4.m_hi <= own.m_hi
    by_shell = dict(zip(sampler.shells, law))
    end_tol = (3 + 2 * len(counts)) * grid + over
    for m, w in crit4.rows():
        assert abs(by_shell[m] - Fraction(w)) <= 2 * ball + grid + end_tol, m
    below = sum(f for m, f in by_shell.items() if m < crit4.m_lo)
    above = sum(f for m, f in by_shell.items() if m > crit4.m_hi)
    assert abs(below - Fraction(crit4.lower_tail)) <= ball + end_tol
    assert abs(above - Fraction(crit4.upper_tail)) <= ball + grid + end_tol


def test_shifted_sampler_translates():
    # two-sample test: norms of (shifted sample - gamma) match the plain law
    p, size = 5, 8000
    gamma = PAdicValue.from_int(3, p, N)
    spec = GaussianSpec(p, N, beta=1.0, q=1, gamma=gamma)
    base = GaussianSpec(p, N, beta=1.0, q=1)
    shifted = [sample_gaussian(spec, st)
               for st in MonteCarloEnsemble(7, size).streams()]
    plain = [sample_gaussian(base, st)
             for st in MonteCarloEnsemble(8, size).streams()]
    hist_a, hist_b = {}, {}
    for x in shifted:
        hist_a[(x - gamma).norm()] = hist_a.get((x - gamma).norm(), 0) + 1
    for x in plain:
        hist_b[x.norm()] = hist_b.get(x.norm(), 0) + 1
    for key in set(hist_a) | set(hist_b):
        fa = hist_a.get(key, 0) / size
        fb = hist_b.get(key, 0) / size
        se = math.sqrt(max(fa, fb) * (1 - min(fa, fb)) / size) + 1e-9
        assert abs(fa - fb) <= 5 * se, (key, fa, fb)


def test_empirical_char_with_shift():
    p, beta, size = 5, 2.0, 20000
    gamma = PAdicValue.from_rational(2, 5, p, N)
    spec = GaussianSpec(p, N, beta=beta, q=1, gamma=gamma)
    h = PAdicValue.one(p, N)
    got = empirical_char(spec, h, size, seed=5)
    import cmath
    want = math.exp(-beta) * cmath.exp(2j * math.pi * 2 / 5)
    tol = 4 / math.sqrt(size)
    assert abs(got.real - want.real) <= tol
    assert abs(got.imag - want.imag) <= tol


def test_tree_path_center_zero_and_determinism():
    ball = BallSpec.unit(3, N)
    w1 = wiener_path("tree", ball, 4, 1.0, seed=31)
    w2 = wiener_path("tree", ball, 4, 1.0, seed=31)
    assert w1.values[0].is_zero
    assert w1.values == w2.values
    w3 = wiener_path("tree", ball, 4, 1.0, seed=32)
    assert w1.values != w3.values


def test_tree_single_level_reduces_to_gaussian():
    p = 5
    ball = BallSpec.unit(p, N)
    beta = 0.7
    stream = RandomStream(11)
    path = sample_wiener_tree((beta,), 1.0, ball, 1, stream)
    spec = GaussianSpec(p, N, beta=beta, q=1)
    stream2 = RandomStream(11)
    draws = [Gaussian1DSampler(spec).draw(stream2) for _ in range(p - 1)]
    assert list(path.values[1:]) == draws


@pytest.mark.parametrize("p, depth", [(2, 4), (3, 3), (5, 2), (11, 1)])
@pytest.mark.parametrize("radius_exp", [0, 2])
def test_tree_sampler_matches_padic_reference(p, depth, radius_exp):
    # the integer tree loop against ``base + draw(stream)`` in PAdicValue
    # arithmetic, node by node over the same tree scan
    ball = BallSpec(PAdicValue.zero(p, N), radius_exp)
    levels = radius_exp + depth
    betas = level_betas(ball, depth, 1.0)
    samplers = [Gaussian1DSampler(GaussianSpec(p, N, beta=b, q=1.0))
                for b in betas]
    carries = 0
    for seed in range(24):
        stream = RandomStream(seed)

        def children(level, j, base, kids):
            nonlocal carries
            out = []
            for _ in kids:
                d = samplers[level].draw(stream)
                s = base + d
                if not base.is_zero and base.v == d.v and s.v > d.v:
                    carries += 1
                out.append(s)
            return out

        want = _tree_scan(p, levels, PAdicValue.zero(p, N), children)
        fast = RandomStream(seed)
        got = sample_wiener_tree(betas, 1.0, ball, depth, fast)
        assert got.values == tuple(want)
        assert fast.state == stream.state
    if p == 2:
        assert carries > 0


def test_tree_sibling_subtrees_factorize():
    # E[chi_a(D1) chi_b(D2)] = E[chi_a(D1)] E[chi_b(D2)] for increments over
    # disjoint digit subtrees (exact independence by construction)
    p, size = 3, 20000

    def add(tally, turns):
        # turns has a power-of-p denominator: record it as num / p**k
        k = 0
        while p**k < turns.denominator:
            k += 1
        tally.add_raw(turns.numerator, k)

    ball = BallSpec.unit(p, N)
    betas = level_betas(ball, 2, 1.0)
    a = PAdicValue(p, N, -1, 1)
    b = PAdicValue(p, N, 0, 2)
    joint, f1, f2 = AngleTally(p), AngleTally(p), AngleTally(p)
    for stream in MonteCarloEnsemble(77, size).streams():
        path = sample_wiener_tree(betas, 1.0, ball, 2, stream)
        d1 = path.values[1]                # digit-1 subtree increment
        d2 = path.values[2]                # digit-2 subtree increment
        a1 = frac_part(a * d1)
        a2 = frac_part(b * d2)
        add(joint, a1 + a2)
        add(f1, a1)
        add(f2, a2)
    lhs = joint.mean()
    rhs = f1.mean() * f2.mean()
    tol = 4 / math.sqrt(size)
    assert abs(lhs.real - rhs.real) <= tol
    assert abs(lhs.imag - rhs.imag) <= tol


def test_mahler_path_center_zero_and_truncation():
    p = 3
    ball = BallSpec.unit(p, N)
    zetas = standard_zetas(p, N, 8)
    w_full = wiener_path("mahler", ball, 3, 1.0, seed=21, zetas=zetas)
    w_short = wiener_path("mahler", ball, 3, 1.0, seed=21, zetas=zetas[:5])
    assert w_full.values[0].is_zero
    # same seed: the first draws coincide, so paths differ only by the tail
    stream = RandomStream(21)
    coeffs = mahler_coefficient_draws(zetas, 1.0, p, N, stream)
    tail_norm = max(c.norm() for c in coeffs[5:])
    for k in range(w_full.size):
        d = w_full.values[k] - w_short.values[k]
        assert d.norm() <= tail_norm + 1e-12


def test_mahler_increment_char_product_formula():
    p, q, size = 3, 1.0, 20000
    ball = BallSpec.unit(p, N)
    zetas = standard_zetas(p, N, 8)
    t = PAdicValue.from_int(4, p, N)
    u = PAdicValue.from_int(1, p, N)
    h = PAdicValue.one(p, N)
    diffs = [mahler_poly(m, t) - mahler_poly(m, u) for m in range(1, 9)]
    want = math.exp(-sum(z.norm() ** q * d.norm() ** q
                         for z, d in zip(zetas, diffs)) * h.norm() ** q)
    tally = AngleTally(p)
    for stream in MonteCarloEnsemble(3, size).streams():
        coeffs = mahler_coefficient_draws(zetas, q, p, N, stream)
        inc = PAdicValue.zero(p, N)
        for c, d in zip(coeffs, diffs):
            inc = inc + c * d
        fr = frac_part(h * inc)
        k = 0
        den = fr.denominator
        while den > 1:
            den //= p
            k += 1
        tally.add_raw(fr.numerator * p**k // fr.denominator, k)
    got = tally.mean()
    tol = 4 / math.sqrt(size)
    assert abs(got.real - want) <= tol
    assert abs(got.imag) <= tol


def test_mahler_coefficients_decay():
    # c_0 behaviour: late coefficients are stochastically below p * |zeta_M/2|
    p, q = 3, 1.0
    zetas = standard_zetas(p, N, 10)
    half = 5
    bound = zetas[half - 1].norm() * p
    hits = 0
    trials = 200
    for stream in MonteCarloEnsemble(13, trials).streams():
        coeffs = mahler_coefficient_draws(zetas, q, p, N, stream)
        if max(c.norm() for c in coeffs[half:]) <= bound:
            hits += 1
    assert hits >= trials * 0.6


def test_bad_zeta_decay_rejected():
    p = 3
    ball = BallSpec.unit(p, N)
    ones = (PAdicValue.one(p, N), PAdicValue.one(p, N))
    with pytest.raises(ValueError, match="not L_q"):
        sample_wiener_mahler(ones, 1.0, ball, 3, RandomStream(0))


# -- one home for every path-law rule ------------------------------------------
#
# Each entry point that takes path-law parameters refuses the same bad
# inputs with the same ValueError, because all of them reach the checks in
# ``path_laws`` (one spread per level) and ``_laws`` (the L_q rule of the
# zetas, ``charfun._lq_spreads``).

_RULE_P, _RULE_DEPTH = 3, 2


def _zeta(v):
    return PAdicValue(_RULE_P, N, v, 1)


_BAD_ZETAS = {
    "equal_valuations": (_zeta(1), _zeta(1)),
    "rising_valuations": (_zeta(2), _zeta(1)),
    # norms 1/9, 1/3, 1/3, which path_laws alone once let through
    "rise_then_equal": (_zeta(2), _zeta(1), _zeta(1)),
    "zero_zeta": (_zeta(1), PAdicValue.zero(_RULE_P, N)),
    "no_zetas": (),
}


def _zeta_entry_points():
    p, q = _RULE_P, 1.0
    ball = BallSpec.unit(p, N)
    psi = GridFunction.constant(ball, _RULE_DEPTH, PAdicValue.one(p, N))
    one = PAdicValue.one(p, N)
    return {
        "wiener_path": lambda z: wiener_path(
            "mahler", ball, _RULE_DEPTH, q, seed=1, zetas=z),
        "sample_wiener_mahler": lambda z: sample_wiener_mahler(
            z, q, ball, _RULE_DEPTH, RandomStream(1)),
        "mahler_coefficient_draws": lambda z: mahler_coefficient_draws(
            z, q, p, N, RandomStream(1)),
        "path_laws": lambda z: path_laws(
            "mahler", ball, _RULE_DEPTH, q, zetas=z),
        "character_product_check": lambda z: character_product_check(
            psi, one, one, 1, samples=10, seed=1, q=q, sampler="mahler",
            zetas=z),
        "product_laws": lambda z: product_laws(p, N, z, q),
    }


def _beta_entry_points():
    p, q = _RULE_P, 1.0
    ball = BallSpec.unit(p, N)
    psi = GridFunction.constant(ball, _RULE_DEPTH, PAdicValue.one(p, N))
    one = PAdicValue.one(p, N)
    return {
        "wiener_path": lambda b: wiener_path(
            "tree", ball, _RULE_DEPTH, q, seed=1, betas=b),
        "sample_wiener_tree": lambda b: sample_wiener_tree(
            b, q, ball, _RULE_DEPTH, RandomStream(1)),
        "path_laws": lambda b: path_laws("tree", ball, _RULE_DEPTH, q,
                                         betas=b),
        "character_product_check": lambda b: character_product_check(
            psi, one, one, 1, samples=10, seed=1, q=q, betas=b),
        "character_product_check_mahler": lambda b: character_product_check(
            psi, one, one, 1, samples=10, seed=1, q=q, betas=b,
            sampler="mahler"),
        "product_telescoping_moduli": lambda b: product_telescoping_moduli(
            psi, one, one, 1, q, b),
    }


def _message(call, arg) -> str:
    with pytest.raises(ValueError) as info:
        call(arg)
    return str(info.value)


@pytest.mark.parametrize("bad", sorted(_BAD_ZETAS))
def test_every_entry_point_refuses_bad_zetas_alike(bad):
    want = _message(lambda z: _lq_spreads(z, 1.0), _BAD_ZETAS[bad])
    assert want.startswith("not L_q")
    got = {name: _message(call, _BAD_ZETAS[bad])
           for name, call in _zeta_entry_points().items()}
    assert got == dict.fromkeys(got, want)


@pytest.mark.parametrize("shift", [-1, 1], ids=["short", "long"])
def test_every_entry_point_refuses_wrong_beta_count_alike(shift):
    levels = BallSpec.unit(_RULE_P, N).radius_exp + _RULE_DEPTH
    betas = tuple(0.5 ** j for j in range(levels + shift))
    got = {name: _message(call, betas)
           for name, call in _beta_entry_points().items()}
    assert got == dict.fromkeys(got, "one spread per level is required")


def test_entry_points_accept_good_path_laws():
    good = (_zeta(1), _zeta(2), _zeta(4))
    for call in _zeta_entry_points().values():
        call(good)
    levels = BallSpec.unit(_RULE_P, N).radius_exp + _RULE_DEPTH
    for call in _beta_entry_points().values():
        call(tuple(0.5 ** j for j in range(levels)))


def test_series_laws_are_the_product_laws_samplers():
    # one spread rule and one law cache: the series sampler's laws are the
    # cached samplers of the product measure's coordinate laws
    p, q = 3, 1.5
    zetas = (_zeta(1), _zeta(2), _zeta(4))
    laws = measure._laws("mahler", zetas, q, p, N)
    want = tuple(measure.cached_sampler(law)
                 for law in product_laws(p, N, zetas, q))
    assert len(laws) == 3
    assert all(a is b for a, b in zip(laws, want, strict=True))
    assert not hasattr(measure._laws, "cache_info")


@pytest.mark.parametrize("radius_exp, q", [(1, 500.0), (2, 300.0)])
def test_level_spread_that_leaves_the_floats_is_refused(radius_exp, q):
    # p**(radius_exp * q) overflows a float: a ValueError, as a spread that
    # underflows to zero is, not an OverflowError
    ball = BallSpec(PAdicValue.zero(5, N), radius_exp)
    want = f"the level-0 spread 5**{radius_exp * q} leaves the float range"
    assert _message(lambda q: level_betas(ball, 2, q), q) == want
    assert _message(lambda q: path_laws("tree", ball, 2, q), q) == want
    assert level_betas(ball, 2, 1.0) == tuple(
        5.0 ** (radius_exp - j) for j in range(radius_exp + 2))


# The two float rules that the L_q rule replaced, as they were written:
# product mode asked for nonzero zetas with
# |zeta_{j+1}| <= 0.5 |zeta_j| + 1e-15, the series sampler for at least one
# zeta with |zeta_{j+1}| <= 0.75 |zeta_j| + 1e-15 and, where its laws were
# built, a positive spread |zeta|**q for each.

def _old_product_rule(zetas) -> bool:
    if not zetas or any(z.is_zero for z in zetas):
        return False
    norms = [z.norm() for z in zetas]
    return all(b <= 0.5 * a + 1e-15 for a, b in zip(norms, norms[1:]))


def _old_series_rule(zetas, q=1.0) -> bool:
    if not zetas:
        return False
    norms = [z.norm() for z in zetas]
    return all(b <= 0.75 * a + 1e-15 for a, b in zip(norms, norms[1:])) \
        and all(x ** q > 0 for x in norms)


def _new_rule(zetas) -> bool:
    try:
        _lq_spreads(zetas, 1.0)
    except ValueError:
        return False
    return True


# Norms are powers of p, so a ratio below one is at most 1/2 and both float
# rules hold; a ratio of one or more fails both, as long as the norms are
# well above the rules' absolute slack of 1e-15 (p**-10 >= 7**-10 > 3e-9).
@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       vals=st.lists(st.none() | st.integers(-10, 10), max_size=6))
def test_lq_rule_accepts_exactly_what_both_float_rules_accept(p, vals):
    zetas = tuple(PAdicValue.zero(p, N) if v is None else PAdicValue(p, N, v, 1)
                  for v in vals)
    assert _new_rule(zetas) == (
        _old_product_rule(zetas) and _old_series_rule(zetas))


def test_lq_rule_refuses_equal_tiny_norms_the_float_slack_let_through():
    # at norms below the 1e-15 slack the float rules accepted equal norms,
    # which do not decay; the valuation rule refuses them
    zetas = (PAdicValue(2, N, 60, 1), PAdicValue(2, N, 60, 1))
    assert _old_product_rule(zetas) and _old_series_rule(zetas)
    assert not _new_rule(zetas)


# -- the ensemble's one count loop ----------------------------------------------


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
def test_counts_match_the_explicit_loop(seed):
    sampler = Gaussian1DSampler(GaussianSpec(3, N, 1.0, 1.0))
    ens = MonteCarloEnsemble(seed, 400)

    def key(stream, u1s):
        return sampler.draw_raw(stream, 1, u1s.pop())

    want: dict = {}
    for stream in ens.streams():
        k = sampler.draw_raw(stream, 1)
        want[k] = want.get(k, 0) + 1
    got = ens._counts(key, 1)
    assert list(got.items()) == list(want.items())
    assert sum(got.values()) == ens.size


# -- lane-packed mixing --------------------------------------------------------

_G = 0x9E3779B97F4A7C15
_M = (1 << 64) - 1


def _scalar_counts(ens, key, draws):
    """``_counts`` as the plain per-stream loop: the key is given no
    pre-mixed output (None for each u1), so every output is mixed
    inline."""
    want: dict = {}
    for stream in ens.streams():
        k = key(stream, [None] * draws)
        want[k] = want.get(k, 0) + 1
    return want


@pytest.mark.parametrize("lanes", [1, 2, measure._BLOCK - 1, measure._BLOCK,
                                   measure._BLOCK + 1])
def test_mix_block_matches_mix64(lanes):
    # lane i holds start + i G, unreduced; the first 40 lanes lie within
    # 40 G below 2**64 and the next ones wrap
    start = (-40 * _G) & _M
    ones, ramp, _ = measure._lanes(lanes)
    packed = measure._mix_block(start * ones + _G * ramp, lanes)
    want = [mix64(start + i * _G) for i in range(lanes)]
    assert measure._unpack(packed, lanes) == want
    # output c of each of a stream's next draws, last draw first: one
    # block of 3 * lanes outputs split into u1, u2 and u3
    for c, got in enumerate(measure._stream_draws(start, lanes), 1):
        assert got == [mix64(start + (3 * d + c) * _G)
                       for d in reversed(range(lanes))]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_counts_match_the_scalar_loop_at_every_cut(monkeypatch, p):
    # blocks of 12 lanes: 12 samples a block at one draw a sample, 4 at
    # three; the sizes are 1, a block minus and plus one, and 2.5 blocks
    monkeypatch.setattr(measure, "_BLOCK", 12)
    sampler = Gaussian1DSampler(GaussianSpec(p, N, 1.0, 1.0))
    for draws in (1, 3):
        per = 12 // draws
        for size in (1, per - 1, per + 1, 2 * per + per // 2):
            ens = MonteCarloEnsemble(1000 * p + size, size)
            for cut in (None, sampler.shell_only, *range(N + 1)):
                def key(stream, u1s):
                    return tuple(sampler.draw_raw(stream, cut, u1s.pop())
                                 for _ in range(draws))

                got = ens._counts(key, draws)
                assert list(got.items()) == list(
                    _scalar_counts(ens, key, draws).items()), \
                    (draws, size, cut)


def test_counts_at_full_blocks():
    sampler = Gaussian1DSampler(GaussianSpec(5, N, 1.0, 1.0))
    for draws in (1, 2):
        per = measure._BLOCK // draws
        for size in (per - 1, per + 1):
            ens = MonteCarloEnsemble(size, size)

            def key(stream, u1s):
                return tuple(sampler.draw_raw(stream, 0, u1s.pop())
                             for _ in range(draws))

            assert list(ens._counts(key, draws).items()) == \
                list(_scalar_counts(ens, key, draws).items())


def test_counts_mixes_blocks_of_whole_samples(monkeypatch):
    # blocks of 12 lanes hold 12 // draws samples, and at least one sample
    # when a sample's draws alone pass 12 lanes; each block costs one
    # ``_mix_block`` call for its seeds and one per draw
    monkeypatch.setattr(measure, "_BLOCK", 12)
    calls = [0]
    mix_block = measure._mix_block

    def counting(z, k):
        calls[0] += 1
        return mix_block(z, k)

    monkeypatch.setattr(measure, "_mix_block", counting)
    sampler = Gaussian1DSampler(GaussianSpec(3, N, 1.0, 1.0))
    for draws, size, blocks in ((0, 30, 3), (1, 30, 3), (3, 30, 8),
                                (13, 3, 3)):
        def key(stream, u1s):
            return tuple(sampler.draw_raw(stream, 0, u1s.pop())
                         for _ in range(draws))

        calls[0] = 0
        MonteCarloEnsemble(draws, size)._counts(key, draws)
        assert calls[0] == blocks * (1 + draws), (draws, size)


@pytest.mark.parametrize("declared", [0, 1, 3, 5])
def test_counts_when_a_key_draws_other_than_declared(monkeypatch, declared):
    # a key that draws one time fewer or one time more than declared has
    # no u1 of its own for some draw, or leaves one unread: the stream's
    # state after the sample gives it away, and ``_counts`` raises.  The
    # declared count is met exactly, and the stream state after every draw
    # is part of the key, so it must match the scalar state.
    monkeypatch.setattr(measure, "_BLOCK", 16)
    sampler = Gaussian1DSampler(GaussianSpec(3, N, 1.0, 1.0))
    ens = MonteCarloEnsemble(77, 50)
    for draws in (declared - 1, declared, declared + 1):
        if draws < 0:
            continue

        def key(stream, u1s):
            out = []
            for _ in range(draws):
                u1 = u1s.pop() if u1s else None
                out.append((sampler.draw_raw(stream, None, u1), stream.state))
            return tuple(out)

        if draws == declared:
            got = ens._counts(key, declared)
            assert list(got.items()) == \
                list(_scalar_counts(ens, key, draws).items())
        else:
            with pytest.raises(ValueError, match=f"draw {declared} times"):
                ens._counts(key, declared)


def test_counts_when_a_key_moves_its_stream_between_draws():
    # a stream moved other than by draw_raw between two draws makes the
    # second draw's u1 that of another state: ``_counts`` raises
    sampler = Gaussian1DSampler(GaussianSpec(5, N, 1.0, 1.0))
    ens = MonteCarloEnsemble(5, 300)
    moves = (RandomStream.u64, lambda stream: setattr(
        stream, "state", stream.state ^ 1), lambda stream: setattr(
        stream, "state", (stream.state + 3 * _G) & _M))
    for move in moves:
        def key(stream, u1s):
            first = sampler.draw_raw(stream, None, u1s.pop())
            move(stream)
            return first, sampler.draw_raw(stream, None, u1s.pop())

        with pytest.raises(ValueError, match="another state"):
            ens._counts(key, 2)


def test_draw_raw_given_outputs_match_inline_draws():
    # outputs a caller passes, here the stream's own: u1 alone as
    # ``_counts`` passes it, and all three as the tree sampler does; the
    # value and the stream state after the draw are the inline draw's at
    # every cut, from states on both sides of 2**64
    sampler = Gaussian1DSampler(GaussianSpec(3, N, 2.0, 1.0))
    cuts = [None, *range(sampler.shell_only - 1,
                         N + 2 - min(sampler.shells))]
    states = [0, *range(2**64 - 8, 2**64), *(mix64(i) for i in range(200))]
    for s in states:
        outs = [mix64(s + c * _G) for c in (1, 2, 3)]
        for cut in cuts:
            ref = RandomStream(s)
            want = sampler.draw_raw(ref, cut)
            for given in (outs[:1], outs):
                stream = RandomStream(s)
                assert sampler.draw_raw(stream, cut, *given) == want, \
                    (s, cut, len(given))
                assert stream.state == ref.state == (s + 3 * _G) & _M


def _law_draw(sampler, u1, u2, u3, cut):
    """The draw that the documented law gives for outputs u1, u2, u3,
    worked out exactly: shell i + 1 once (u1 >> 11) / 2**53 reaches the
    i-th cumulative weight, the lead digit 1 + u2 mod (p - 1), the other
    digits u3 mod p**(n - 1), of which a cut keeps the k = cut + m lowest
    (the unit 1 when k < 1)."""
    p, n = sampler.spec.p, sampler.spec.n
    x = Fraction(u1 >> 11, 2**53)
    i = sum(x >= Fraction(c) for c in sampler.cumulative)
    m = sampler.shells[min(i, len(sampler.shells) - 1)]
    mant = 1 + u2 % (p - 1) + p * (u3 % p**(n - 1))
    k = n if cut is None else cut + m
    return -m, mant % p**min(k, n) if k >= 1 else 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_draw_raw_draws_the_exact_law(p):
    # u1 on both sides of every shell bound, u2 in every class mod p - 1
    # and u3 at the ends of its digit range, on the two routes a draw
    # takes: its outputs mixed inline, and its outputs given (u1 from a
    # ``_counts`` block with u2 and u3 inline, or all three as from a tree
    # block)
    sampler = Gaussian1DSampler(GaussianSpec(p, N, 2.0, 1.0))
    u1s = [0, _M]
    for c in sampler.cumulative:
        step = math.ceil(c * 2**53) << 11
        u1s += [u for u in (step - 1, step) if 0 <= u <= _M]
    u2s = [r + (p - 1) * 0x5DEECE66D for r in range(p - 1)] + [_M]
    u3s = [0, 1, p**(N - 1) - 1, p**(N - 1), _M]
    cuts = (None, sampler.shell_only, 0, 2)
    # inline and from a ``_counts`` block, each output chosen in turn
    # through the state: output c of a draw at s is mix64(s + c G)
    states = [(_unmix64(u) - c * _G) & _M
              for c, us in enumerate((u1s, u2s, u3s), 1) for u in us]
    for s in states:
        outs = [mix64(s + c * _G) for c in (1, 2, 3)]
        master = (_unmix64(s) - _G) & _M
        assert derive_seed(master, 0) == s
        for cut in cuts:
            want = _law_draw(sampler, *outs, cut)
            stream = RandomStream(s)
            assert sampler.draw_raw(stream, cut) == want, (s, cut)
            assert stream.state == (s + 3 * _G) & _M

            def key(stream, u1s, cut=cut):
                held = len(u1s)
                return held, sampler.draw_raw(stream, cut, u1s.pop()), len(u1s)

            assert MonteCarloEnsemble(master, 1)._counts(key, 1) == \
                {(1, want, 0): 1}, (s, cut)
    # all three outputs given, whatever the state
    for u1 in u1s:
        for j, u2 in enumerate(u2s):
            for u3 in u3s[j % 2::2]:
                for cut in cuts:
                    stream = RandomStream(_G * j)
                    got = sampler.draw_raw(stream, cut, u1, u2, u3)
                    assert got == _law_draw(sampler, u1, u2, u3, cut), \
                        (u1, u2, u3, cut)
                    assert stream.state == (_G * (j + 3)) & _M


@pytest.mark.parametrize("p, n, depth", [(2, 12, 11), (5, N, 5), (7, N, 4),
                                         (7, 1, 1)])
def test_tree_path_blocks_match_inline_draws(monkeypatch, p, n, depth):
    # the path's 2047, 3124, 2400 or 6 draws come in blocks of whole
    # nodes, the last one short.  Drawn with every output mixed inline, or
    # with u1 alone given as ``_counts`` gives it, the path must not move
    ball = BallSpec.unit(p, n)
    blocked = wiener_path("tree", ball, depth, 1.0, seed=p).values
    real = Gaussian1DSampler.draw_raw

    def path_given(count):
        monkeypatch.setattr(
            Gaussian1DSampler, "draw_raw",
            lambda self, stream, cut, *outs: real(self, stream, cut,
                                                  *outs[:count]))
        try:
            return wiener_path("tree", ball, depth, 1.0, seed=p).values
        finally:
            monkeypatch.setattr(Gaussian1DSampler, "draw_raw", real)

    assert path_given(0) == blocked
    assert path_given(1) == blocked
    # and each output of the blocks is read: planted zeros put every draw
    # on the first shell (u1), make every lead digit 1 (u2) or every other
    # digit 0 (u3).  u2 mod p - 1 reads nothing at p = 2, and u3 nothing
    # at n = 1, so there a planted output must leave the path as it is
    blocks = measure._stream_draws
    for c, read in enumerate((True, p > 2, n > 1)):
        def planted(state, draws, c=c):
            outs = list(blocks(state, draws))
            outs[c] = [0] * draws
            return tuple(outs)

        monkeypatch.setattr(measure, "_stream_draws", planted)
        assert (wiener_path("tree", ball, depth, 1.0, seed=p).values
                != blocked) == read, c
