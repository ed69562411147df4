"""Reproducible samplers for q-Gaussian measures and ultrametric Wiener
processes.

Randomness comes from a self-contained 64-bit SplitMix-style generator so
that every ensemble is bit-reproducible from its master seed: the per-sample
seed is the (index+1)-th SplitMix64 output of the master state, and each
sample owns a private stream (see ``mix64`` for the published constants).

Two path samplers are provided.  The series sampler expands the path over
the binomial polynomial basis with independent q-Gaussian coefficients
(spread |zeta_m|**q for coefficient m >= 1, so the path vanishes at the
marked point).  The tree sampler attaches an independent q-Gaussian
increment to every nonzero-digit edge of the grid's digit tree, which makes
increments along disjoint prefix chains independent by construction; the
level-j spread defaults to beta0 * p**(-j*q), the law of a standard
increment over a step of norm p**(-j).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

from .antider import GridFunction, _tree_scan
from .charfun import GaussianSpec, shell_distribution
from .padic import BallSpec, PAdicValue, _pow

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele-Lea-Flood constants), bit-exact."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Per-sample seed: the (index+1)-th SplitMix64 output from master."""
    return mix64((master + (index + 1) * _GOLDEN) & _MASK)


class RandomStream:
    """A private SplitMix64 stream; all draws are documented int maps."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def float53(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) as u64 % bound."""
        return self.u64() % bound


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
        for i in range(self.size):
            yield RandomStream(derive_seed(self.master_seed, i))

    def collect(self, fn):
        """Deterministic map ordered by sample index."""
        return [fn(i, self.stream(i)) for i in range(self.size)]


# -- one-dimensional sampling ---------------------------------------------------


class Gaussian1DSampler:
    """Inverse-CDF shell draw followed by uniform digits at precision n.

    The norm shell m is drawn from the exact shell weights; the sample is
    then uniform on that shell: leading digit uniform in [1, p), the
    remaining n-1 digits uniform in [0, p); digits beyond the mantissa are
    treated as zero.  The optional shift gamma is added afterwards.
    """

    def __init__(self, spec: GaussianSpec, tail_tol: float = 1e-15):
        if spec.is_product:
            raise ValueError("one-dimensional spec required")
        self.spec = spec
        table = shell_distribution(spec, tail_tol=tail_tol)
        self.shells = [m for m, _ in table.rows()]
        self.cumulative = table.cdf()

    def draw_raw(self, stream: RandomStream) -> tuple[int, int]:
        """Fast path: (valuation, mantissa) of an unshifted draw."""
        spec = self.spec
        i = bisect.bisect_right(self.cumulative, stream.float53())
        if i >= len(self.shells):
            i = len(self.shells) - 1
        m = self.shells[i]
        p = spec.p
        lead = 1 + stream.below(p - 1)
        rest = stream.below(_pow(p, spec.n - 1))
        return -m, lead + p * rest

    def draw(self, stream: RandomStream) -> PAdicValue:
        v, mant = self.draw_raw(stream)
        x = PAdicValue(self.spec.p, self.spec.n, v, mant)
        gamma = self.spec.gamma
        if gamma is not None and not gamma.is_zero:
            x = x + gamma
        return x


@lru_cache(maxsize=512)
def cached_sampler(spec: GaussianSpec, tail_tol: float = 1e-15) -> Gaussian1DSampler:
    """Shell tables depend only on the measure parameters; share them."""
    return Gaussian1DSampler(spec, tail_tol=tail_tol)


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
    from .charfun import AngleTally

    sampler = cached_sampler(spec)
    p, n = spec.p, spec.n
    hs = list(h_values)
    tallies = [AngleTally(p) for _ in hs]
    ens = MonteCarloEnsemble(seed, size)
    gamma = spec.gamma
    shifted = gamma is not None and not gamma.is_zero
    hdata = [(None if h.is_zero else (h.v, h.m)) for h in hs]
    for stream in ens.streams():
        v, mant = sampler.draw_raw(stream)
        for h, hd, tally in zip(hs, hdata, tallies):
            if hd is None:
                tally.add_raw(0, 0)
                continue
            k = -(hd[0] + v)
            if k > n:
                # the angle window leaves the mantissa; the conditional
                # character over the unsampled digits is exactly zero
                tally.add_zero()
                continue
            if not shifted:
                if k <= 0:
                    tally.add_raw(0, 0)
                else:
                    tally.add_raw((hd[1] * mant) % _pow(p, k), k)
                continue
            y = h * (PAdicValue(p, n, v, mant) + gamma)
            tally.add_raw(y.m, -y.v)
    return {h: tally.mean() for h, tally in zip(hs, tallies)}


def norm_histogram(spec: GaussianSpec, size: int, seed: int) -> dict[int, int]:
    """Counts of the sampled norm exponents m (|x| = p**m) per shell."""
    sampler = cached_sampler(spec)
    counts: dict[int, int] = {}
    for stream in MonteCarloEnsemble(seed, size).streams():
        v, _ = sampler.draw_raw(stream)
        counts[-v] = counts.get(-v, 0) + 1
    return counts


# -- Wiener paths ---------------------------------------------------------------


@dataclass(frozen=True)
class WienerPath:
    """A sampled path on the canonical grid of a ball, zero at the center."""

    values: GridFunction
    sampler: str
    seed: int

    @property
    def ball(self) -> BallSpec:
        return self.values.ball

    @property
    def depth(self) -> int:
        return self.values.depth

    def at_index(self, k: int) -> PAdicValue:
        return self.values.values[k]

    def __getitem__(self, t: PAdicValue) -> PAdicValue:
        return self.values[t]


def standard_zetas(p: int, n: int, count: int) -> tuple[PAdicValue, ...]:
    """Default diagonal coefficients |zeta_m| = p**(-m), m = 1..count."""
    return tuple(PAdicValue.from_int(1, p, n).scale_pow(m)
                 for m in range(1, count + 1))


def level_betas(ball: BallSpec, depth: int, q: float,
                beta0: float = 1.0) -> tuple[float, ...]:
    """Standard tree-sampler spreads: level j's digit step has norm
    p**(-(j - radius_exp)), and the increment over a step dt of a standard
    process is q-Gaussian with spread beta0 * |dt|**q."""
    p, r = ball.p, ball.radius_exp
    return tuple(beta0 * float(p) ** (-(j - r) * q)
                 for j in range(r + depth))


def sample_wiener_mahler(zetas, q: float, ball: BallSpec, depth: int,
                         stream: RandomStream, seed: int = 0) -> WienerPath:
    """Path w(t) = sum_{m>=1} X_m Q_m(t - center) over the binomial basis,
    with independent coefficients X_m of spread |zeta_m|**q.

    Coefficient indexing starts at m = 1, so Q_m vanishes at the center and
    w(center) = 0 exactly.  The declared geometric decay of the zetas is
    what witnesses summability of the spreads at this truncation.
    """
    zetas = tuple(zetas)
    if not zetas:
        raise ValueError("not L_q")
    p, n = ball.p, ball.n
    norms = [z.norm() for z in zetas]
    for a, b in zip(norms, norms[1:]):
        if b > 0.75 * a + 1e-15:
            raise ValueError("not L_q")
    coeffs = mahler_coefficient_draws(zetas, q, p, n, stream)
    size = ball.grid_size(depth)
    zero = PAdicValue.zero(p, n)
    values = []
    for k in range(size):
        x = ball.point(k, depth) - ball.center
        acc = zero
        qpoly = PAdicValue.one(p, n)
        for m, coef in enumerate(coeffs, start=1):
            qpoly = qpoly * (x - PAdicValue.from_int(m - 1, p, n))
            qpoly = qpoly / PAdicValue.from_int(m, p, n)
            if not coef.is_zero and not qpoly.is_zero:
                acc = acc + coef * qpoly
        values.append(acc)
    values[0] = zero
    grid = GridFunction(ball, depth, tuple(values))
    return WienerPath(values=grid, sampler="mahler", seed=seed)


def mahler_coefficient_draws(zetas, q: float, p: int, n: int,
                             stream: RandomStream) -> list[PAdicValue]:
    """The coefficient draws of the series sampler, in stream order."""
    out = []
    for z in zetas:
        spec = GaussianSpec.one_dimensional(p, n, beta=z.norm() ** q, q=q)
        out.append(cached_sampler(spec).draw(stream))
    return out


def sample_wiener_tree(betas, q: float, ball: BallSpec, depth: int,
                       stream: RandomStream, seed: int = 0) -> WienerPath:
    """Digit-tree path: each nonzero-digit edge of the grid tree carries an
    independent q-Gaussian increment with the level's spread; a point's
    value is the sum of the increments along its prefix chain.

    Edges with digit 0 are trivial steps (the prefix does not move) and
    carry an exactly-zero increment, which forces w(center) = 0 and makes
    increments over disjoint subtrees independent by construction.
    """
    betas = tuple(betas)
    levels = ball.radius_exp + depth
    if len(betas) != levels or any(b <= 0 for b in betas):
        raise ValueError("one positive spread per level is required")
    p, n = ball.p, ball.n
    samplers = [cached_sampler(
        GaussianSpec.one_dimensional(p, n, beta=b, q=q)) for b in betas]

    def children(level, j, base, kids):
        draw = samplers[level].draw
        return [base + draw(stream) for _ in kids]

    values = _tree_scan(p, levels, PAdicValue.zero(p, n), children)
    grid = GridFunction(ball, depth, tuple(values))
    return WienerPath(values=grid, sampler="tree", seed=seed)


def wiener_path(kind: str, ball: BallSpec, depth: int, q: float, seed: int,
                zetas=None, betas=None) -> WienerPath:
    """Seeded convenience wrapper around the two path samplers."""
    stream = RandomStream(seed)
    if kind == "tree":
        if betas is None:
            betas = level_betas(ball, depth, q)
        return sample_wiener_tree(betas, q, ball, depth, stream, seed=seed)
    if kind == "mahler":
        if zetas is None:
            zetas = standard_zetas(ball.p, ball.n, 2 * depth)
        return sample_wiener_mahler(zetas, q, ball, depth, stream, seed=seed)
    raise ValueError(f"unknown sampler kind: {kind}")
