"""Reproducible samplers for q-Gaussian measures and ultrametric Wiener
processes.

Randomness comes from a self-contained 64-bit SplitMix-style generator so
that every ensemble is bit-reproducible from its master seed: the per-sample
seed is the (index+1)-th SplitMix64 output of the master state (see
``mix64`` for the published constants).  ``derive_seed`` is that rule's one
scalar form, which seeds each sample's private stream in
``MonteCarloEnsemble.stream``; ``MonteCarloEnsemble._counts``, the one
ensemble loop of the estimators that read each sample once, is its block
form: it keeps a single ``RandomStream`` and sets it to each seed in turn.
``Gaussian1DSampler.draw_raw`` is called once per draw; it takes any of
the draw's outputs that its caller has mixed already as arguments and
writes the finalizer inline for the rest.  ``_mix_block`` is the only SWAR
("SIMD within a register") code: it mixes many outputs at once, one per
128-bit lane of a Python int.  It gives ``_counts`` the seeds of a block of
samples and the shell output u1 of each of their draws (few of those draws
read u2 or u3, which stay inline and lazy), and the tree sampler all three
outputs of its path's draws, every one of which it reads.

Two path samplers are provided, and each returns its path as a plain
``GridFunction``.  The series sampler expands the path over
the binomial polynomial basis with independent q-Gaussian coefficients
(spread |zeta_m|**q for coefficient m >= 1, so the path vanishes at the
marked point); that basis spans the continuous functions on Z_p only.
The tree sampler attaches an independent q-Gaussian increment to every
nonzero-digit edge of the grid's digit tree, which makes increments along
disjoint prefix chains independent by construction; the level-j spread
defaults to p**(-j*q), the law of a standard increment over a step of
norm p**(-j).  ``path_laws`` checks every path-law parameter and builds
the laws, so each entry point refuses the same inputs, and the samplers
draw from its laws and check nothing.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .antider import GridFunction, _tree_scan
from .charfun import AngleTally, GaussianSpec, _lq_spreads, shell_distribution
from .padic import BallSpec, PAdicValue, _vp, mahler_basis

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN3 = 3 * _GOLDEN

# a sampler's shell table is cut where its tails fall below this mass
TAIL_TOL = 1e-15

# lanes per mixing block: a 4096-lane block is a 64 KB int
_BLOCK = 4096
# among the native 64-bit words of ``z.to_bytes(16 * k, sys.byteorder)``,
# the low word of each 128-bit lane, lane 0 first
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele-Lea-Flood constants), bit-exact."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _lanes(k: int) -> tuple[int, int, int]:
    """The constants of a k-lane block, one 128-bit lane per value: ones
    (1 in every lane), ramp (i in lane i) and mask (2**64 - 1 in every
    lane)."""
    ones = int.from_bytes((b"\1" + bytes(15)) * k, "little")
    ramp = int.from_bytes(b"".join(i.to_bytes(16, "little")
                                   for i in range(k)), "little")
    return ones, ramp, _MASK * ones


def _mix_block(z: int, k: int) -> int:
    """``mix64`` of each of the k lanes of z, packed the same way.

    Lane i holds bits 128*i .. 128*i + 127 of z, and only its value mod
    2**64 is read.  Each finalizer step runs once for the whole block: the
    shift is masked back into its lane, the product of a 64-bit lane and a
    64-bit constant cannot carry out of its 128-bit lane, and ``& mask``
    reduces every lane mod 2**64 at once.
    """
    mask = _lanes(k)[2]
    z &= mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    return z ^ ((z >> 31) & mask)


def _unpack(z: int, k: int) -> list[int]:
    """The k lanes of a mixed block, lane 0 first."""
    return memoryview(z.to_bytes(16 * k, sys.byteorder)).cast(
        "Q")[_LOW_WORDS].tolist()


def _stream_draws(state: int, draws: int) -> tuple[list, list, list]:
    """The outputs u1, u2 and u3 of ``draws`` consecutive draws from a
    stream at ``state``, each list last draw first: the order the tree
    sampler pops them in.  One block mixes all 3 * draws outputs, in stream
    order."""
    k = 3 * draws
    ones, ramp, _ = _lanes(k)
    out = _unpack(_mix_block((state + _GOLDEN) * ones + _GOLDEN * ramp, k),
                  k)
    out.reverse()
    return out[2::3], out[1::3], out[::3]


def derive_seed(master: int, index: int) -> int:
    """Per-sample seed: the (index+1)-th SplitMix64 output from master."""
    return mix64((master + (index + 1) * _GOLDEN) & _MASK)


class RandomStream:
    """A private SplitMix64 stream; all draws are documented int maps.

    The state is the whole stream: output c of a draw at state s is
    ``mix64(s + c * G)``, whoever mixes it."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)


@dataclass(frozen=True)
class MonteCarloEnsemble:
    """A master seed plus a sample count; derives one stream per sample."""

    master_seed: int
    size: int

    def stream(self, index: int) -> RandomStream:
        if not 0 <= index < self.size:
            raise ValueError("sample index out of range")
        return RandomStream(derive_seed(self.master_seed, index))

    def streams(self):
        """``stream(i)`` for i = 0, 1, ... in order, one object each."""
        return map(self.stream, range(self.size))

    def _counts(self, key, draws: int) -> dict:
        """Counts of ``key(stream, u1s)`` over the samples in
        first-occurrence order; one stream is set to each sample's seed in
        turn.

        ``u1s`` holds the shell outputs u1 of the sample's ``draws`` draws,
        last draw first, and ``key`` makes exactly those draws, each one
        ``draw_raw(stream, cut, u1s.pop())``.  The samples go in blocks of
        about ``_BLOCK`` lanes: ``_mix_block`` mixes a block's seeds, then
        the u1 of each of their draws.  A key that leaves its stream other
        than ``draws`` draws past the seed has drawn a different number of
        times or moved the stream, so its u1s may not be its draws'
        outputs: that raises ValueError.
        """
        counts: dict = {}
        stream = RandomStream(0)
        per = max(_BLOCK // max(draws, 1), 1)
        moved = draws * _GOLDEN3
        for start in range(0, self.size, per):
            k = min(per, self.size - start)
            ones, ramp, _ = _lanes(k)
            seeds = _mix_block(((self.master_seed + (start + 1) * _GOLDEN)
                                & _MASK) * ones + _GOLDEN * ramp, k)
            # lane k * d + i: the u1 of sample i's draw d, the mix of its
            # seed + (3d + 1) G
            u1s = []
            for d in range(draws):
                u1s += _unpack(_mix_block(
                    seeds + ((3 * d + 1) * _GOLDEN & _MASK) * ones, k), k)
            # lanes k * d + i for d falling: sample i's u1s, last draw first
            for top, seed in enumerate(_unpack(seeds, k), k * (draws - 1)):
                stream.state = seed
                out = key(stream, u1s[top::-k])
                if stream.state != (seed + moved) & _MASK:
                    raise ValueError(f"a key declared to draw {draws} "
                                     "times a sample left its stream at "
                                     "another state")
                counts[out] = counts.get(out, 0) + 1
        return counts


# -- one-dimensional sampling ---------------------------------------------------


class Gaussian1DSampler:
    """Inverse-CDF shell draw followed by uniform digits at precision n.

    The norm shell m is drawn from the exact shell weights; the sample is
    then uniform on that shell: leading digit uniform in [1, p), the
    remaining n-1 digits uniform in [0, p); digits beyond the mantissa are
    treated as zero.  The optional shift gamma is added afterwards.
    """

    def __init__(self, spec: GaussianSpec):
        self.spec = spec
        table = shell_distribution(spec, tail_tol=TAIL_TOL)
        self.shells = [m for m, _ in table.rows()]
        self.cumulative = table.cdf()
        # u1 >> 11 >= ceil(c * 2**53) exactly when (u1 >> 11) / 2**53 >= c,
        # so the inverse CDF can bisect the raw output u1 itself
        self._bounds = [math.ceil(c * (1 << 53)) << 11
                        for c in self.cumulative]
        # the largest cut at which ``draw_raw`` reads no digit on any shell
        self.shell_only = -max(self.shells)
        self._rows: dict = {}

    def _row(self, cut: int | None) -> list:
        """The draw table at ``cut``, built once: one entry per index of
        the bisect into the shell cdf (past the end reads the last shell),
        ``(v, lead, rest, (v, 1))`` with the moduli of the lead digit and
        of the remaining digits read, 0 for an output left unmixed.

        This is the one copy of the rule for how many digits a draw reads:
        all of them for ``cut=None``, else ``k = cut + m`` on shell m, the
        lead digit if k >= 1 and the next min(k, n) - 1 digits if k >= 2.
        """
        p, n = self.spec.p, self.spec.n
        row = []
        for m in self.shells + self.shells[-1:]:
            k = n if cut is None else cut + m
            row.append((-m, p - 1 if k >= 1 else 0,
                        p ** (min(k, n) - 1) if k >= 2 else 0, (-m, 1)))
        self._rows[cut] = row
        return row

    def draw_raw(self, stream: RandomStream, cut: int | None = None,
                 u1: int | None = None, u2: int | None = None,
                 u3: int | None = None) -> tuple[int, int]:
        """Fast path: (valuation, mantissa) of an unshifted draw.

        Consumes three stream outputs u1, u2, u3: the shell is the inverse
        CDF at (u1 >> 11) / 2**53, the leading digit 1 + u2 % (p-1) and the
        remaining digits u3 % p**(n-1).  That layout does not depend on
        ``cut``, but outputs the caller does not read are not computed.  A
        caller that reads only the digits at valuations below ``cut``
        reads ``k = cut + m`` digits on shell m: u2 is mixed only if k is at
        least 1 and u3 only if it is at least 2.  The mantissa returned
        then holds only the digits read: that of the full draw mod p**k, or
        the unit 1 when no digit is read.  The per-cut table ``_row`` says
        which outputs a shell reads.  A caller that has mixed some of the
        draw's outputs already, as ``_counts`` does u1 and the tree sampler
        all three, passes them; each output not passed is mixed by the
        SplitMix64 finalizer of ``mix64``, written inline.  Either way the
        stream advances by the draw's three outputs, so the value and the
        stream state after the draw are those of the inline draw when the
        outputs passed are the stream's own.
        """
        try:
            row = self._rows[cut]
        except KeyError:
            row = self._row(cut)
        z = stream.state
        stream.state = s3 = (z + _GOLDEN3) & _MASK
        if u1 is None:                              # u1, mixed inline
            z = (z + _GOLDEN) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u1 = z ^ (z >> 31)
        v, lead, rest, unit = row[bisect_right(self._bounds, u1)]
        if not lead:
            return unit
        if u2 is None:                              # u2, mixed inline
            z = (s3 - _GOLDEN) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u2 = z ^ (z >> 31)
        mant = 1 + u2 % lead
        if not rest:
            return v, mant
        if u3 is None:                              # u3, mixed inline
            z = ((s3 ^ (s3 >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u3 = z ^ (z >> 31)
        return v, mant + self.spec.p * (u3 % rest)

    def draw(self, stream: RandomStream) -> PAdicValue:
        v, mant = self.draw_raw(stream)
        x = PAdicValue(self.spec.p, self.spec.n, v, mant)
        return x if self.spec.gamma.is_zero else x + self.spec.gamma


@lru_cache(maxsize=512)
def cached_sampler(spec: GaussianSpec) -> Gaussian1DSampler:
    """Shell tables depend only on the measure parameters; share them."""
    return Gaussian1DSampler(spec)


def sample_gaussian(spec: GaussianSpec, stream: RandomStream) -> PAdicValue:
    """Single draw from a one-dimensional q-Gaussian law."""
    return cached_sampler(spec).draw(stream)


def empirical_char(spec: GaussianSpec, h_values, size: int,
                   seed: int) -> dict:
    """Empirical characteristic function: the mean of the character at each
    h over one seeded ensemble of draws.

    Character angles stay exact rationals inside the tally; complex values
    appear only in the final averaging.  The unshifted case runs on an
    integer fast path; a nonzero shift falls back to value arithmetic.
    """
    sampler = cached_sampler(spec)
    p, n = spec.p, spec.n
    hs = list(h_values)
    tallies = [AngleTally(p) for _ in hs]
    gamma = spec.gamma
    shifted = not gamma.is_zero
    hdata = [(None if h.is_zero else (h.v, h.m)) for h in hs]
    # Every tally depends on a draw only through its key (v, mant), so each
    # key is tallied once with its count, in first-occurrence order, which
    # gives every tally its angles in the sample-by-sample order.
    # Unshifted, h * x reads the mantissa digits below valuation -h.v, so a
    # draw is read below the largest such cut, and ``draw_raw`` keeps only
    # those digits; a shifted draw is read in full.
    cut = None if shifted else max(
        (-hd[0] for hd in hdata if hd is not None), default=sampler.shell_only)
    draw_raw = sampler.draw_raw
    counts = MonteCarloEnsemble(seed, size)._counts(
        lambda stream, u1s: draw_raw(stream, cut, u1s.pop()), 1)
    for (v, mant), count in counts.items():
        if shifted:
            x = PAdicValue(p, n, v, mant) + gamma
        for h, hd, tally in zip(hs, hdata, tallies):
            k = 0 if hd is None else -(hd[0] + v)
            if k > n:
                # the angle window leaves the mantissa; the conditional
                # character over the unsampled digits is exactly zero
                tally.add_zero(count)
            elif shifted and hd is not None:
                y = h * x
                tally.add_raw(y.m, -y.v, count)
            elif k <= 0:
                tally.add_raw(0, 0, count)
            else:
                tally.add_raw((hd[1] * mant) % p**k, k, count)
    return {h: tally.mean() for h, tally in zip(hs, tallies)}


def norm_histogram(spec: GaussianSpec, size: int, seed: int) -> dict[int, int]:
    """Counts of the sampled norm exponents m (|x| = p**m) per shell."""
    sampler = cached_sampler(spec)
    draw_raw, cut = sampler.draw_raw, sampler.shell_only
    return MonteCarloEnsemble(seed, size)._counts(
        lambda stream, u1s: -draw_raw(stream, cut, u1s.pop())[0], 1)


# -- Wiener paths ---------------------------------------------------------------


def standard_zetas(p: int, n: int, count: int) -> tuple[PAdicValue, ...]:
    """Default diagonal coefficients |zeta_m| = p**(-m), m = 1..count."""
    return tuple(PAdicValue.from_int(1, p, n).scale_pow(m)
                 for m in range(1, count + 1))


def level_betas(ball: BallSpec, depth: int, q: float) -> tuple[float, ...]:
    """Standard tree-sampler spreads: level j's digit step has norm
    p**(-(j - radius_exp)), and the increment over a step dt of a standard
    process is q-Gaussian with spread |dt|**q."""
    p, r = ball.p, ball.radius_exp
    ball.grid_size(depth)   # refuses a negative total depth
    try:
        return tuple(float(p) ** (-(j - r) * q) for j in range(r + depth))
    except OverflowError:
        raise ValueError(f"the level-0 spread {p}**{r * q} leaves the "
                         "float range") from None


def _series_ball_ok(ball: BallSpec) -> bool:
    """True for a ball inside Z_p, the domain of the series sampler's
    binomial (Mahler) basis; any other ball raises ValueError."""
    if ball.radius_exp > 0:
        raise ValueError(f"radius_exp {ball.radius_exp} leaves Z_p, the "
                         "domain of the series sampler's binomial basis")
    return True


def path_laws(kind: str, ball: BallSpec, depth: int, q: float, *,
              betas=None, zetas=None) -> tuple[Gaussian1DSampler, ...]:
    """The draw laws of ``wiener_path(kind, ...)``, the one place that
    checks a path's parameters: one law per tree level of spread betas[j]
    (default ``level_betas``), or per series coefficient of spread
    |zeta|**q (``_lq_spreads``; default the first ``2 * depth`` standard
    zetas).  Building them draws nothing, and ``cached_sampler`` is their
    one cache.  An unknown kind, the other kind's parameters, tree spreads
    not one per level, non-L_q zetas, a series ball beyond Z_p, and
    spreads that ``GaussianSpec`` or the shell table refuse raise
    ValueError.
    """
    if kind == "tree" and zetas is None:
        if betas is not None and len(betas) != ball.radius_exp + depth:
            raise ValueError("one spread per level is required")
        spreads = level_betas(ball, depth, q) if betas is None else betas
    elif kind == "mahler" and betas is None and _series_ball_ok(ball):
        spreads = _lq_spreads(standard_zetas(ball.p, ball.n, 2 * depth)
                              if zetas is None else zetas, q)
    elif kind in ("tree", "mahler"):
        other = "zetas" if kind == "tree" else "betas"
        raise ValueError(f"{other} are not parameters of the {kind} sampler")
    else:
        raise ValueError(f"unknown sampler kind: {kind}")
    return tuple(cached_sampler(GaussianSpec(ball.p, ball.n, b, q))
                 for b in spreads)


def sample_wiener_mahler(laws, ball: BallSpec, depth: int,
                         stream: RandomStream) -> GridFunction:
    """Path w(t) = sum_{m>=1} X_m Q_m(t - center) over the binomial basis,
    with independent coefficients X_m, one from each law of ``laws``, the
    series laws of ``path_laws`` (which holds the ball inside Z_p).

    Coefficient indexing starts at m = 1, so Q_m vanishes at the center and
    w(center) = 0 exactly.  The zetas' strictly decreasing norms (the L_q
    rule) witness summability of the spreads at this truncation.
    """
    coeffs = [law.draw(stream) for law in laws]
    zero = PAdicValue.zero(ball.p, ball.n)
    values = []
    for k in range(ball.grid_size(depth)):
        x = ball.point(k, depth) - ball.center
        acc = zero
        for coef, qpoly in zip(coeffs, mahler_basis(x, len(coeffs))[1:]):
            if not coef.is_zero and not qpoly.is_zero:
                acc = acc + coef * qpoly
        values.append(acc)
    return GridFunction(ball, depth, tuple(values))


def sample_wiener_tree(laws, ball: BallSpec, depth: int,
                       stream: RandomStream) -> GridFunction:
    """Digit-tree path: each nonzero-digit edge of the grid tree carries an
    independent increment drawn from its level's law, one of the tree laws
    of ``path_laws``; a point's value is the sum of the increments along
    its prefix chain.

    Edges with digit 0 are trivial steps (the prefix does not move) and
    carry an exactly-zero increment, which forces w(center) = 0 and makes
    increments over disjoint subtrees independent by construction.
    """
    p, n = ball.p, ball.n
    mod = p**n
    # blocks of about 512 draws, 1536 outputs: each block size's lane
    # constants stay cached, and a path's must not add to a solve's peak
    # memory.  A node draws p - 1 times, so a block of whole nodes' draws
    # ends where a node ends.
    block = max(512 // (p - 1), 1) * (p - 1)
    left = p**len(laws) - 1     # draws the path has yet to make
    u1s = u2s = u3s = ()              # the block's outputs, last first

    def children(level, j, base, kids):
        # Integer mirror of ``base + draw(stream)`` in PAdicValue arithmetic;
        # the unshifted draw and the base are both at precision n.
        nonlocal left, u1s, u2s, u3s
        if not u1s:
            take = min(block, left)
            left -= take
            u1s, u2s, u3s = _stream_draws(stream.state, take)
        draw_raw = laws[level].draw_raw
        bv, bm = base.v, base.m
        out = []
        for _ in kids:
            dv, dm = draw_raw(stream, None, u1s.pop(), u2s.pop(), u3s.pop())
            if not bm:
                v, m = dv, dm
            # both mantissas are units, so only an equal-valuation sum
            # can carry factors of p to strip
            elif bv < dv:
                v, m = bv, (bm + dm * p ** (dv - bv)) % mod
            elif bv > dv:
                v, m = dv, (dm + bm * p ** (bv - dv)) % mod
            else:
                num = bm + dm
                s = _vp(num, p)
                v, m = bv + s, num // p ** s % mod
            out.append(PAdicValue(p, n, v, m))
        return out

    values = _tree_scan(p, len(laws), PAdicValue.zero(p, n), children)
    return GridFunction(ball, depth, tuple(values))


def wiener_path(kind: str, ball: BallSpec, depth: int, q: float, seed: int,
                *, zetas=None, betas=None) -> GridFunction:
    """Seeded convenience wrapper around the two path samplers: the laws
    of ``path_laws``, built once, drawn from a stream at ``seed``."""
    laws = path_laws(kind, ball, depth, q, betas=betas, zetas=zetas)
    sample = sample_wiener_tree if kind == "tree" else sample_wiener_mahler
    return sample(laws, ball, depth, RandomStream(seed))
