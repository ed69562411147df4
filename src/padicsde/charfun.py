"""Additive characters of Q_p and characteristic functionals of q-Gaussian
measures.

``character`` returns a character value as its exact angle: a ``Fraction``
turn in [0, 1) whose denominator is a power of p.  Complex floating-point
numbers appear only when angles are finally averaged or compared.  The
q-Gaussian law with spread parameter beta > 0 and shift gamma has
characteristic functional ``exp(-beta * |h|**q) * chi_gamma(h)``; its mass
decomposes over the norm shells ``|x - gamma| = p**m``, and those shell
probabilities are recovered exactly from the characteristic functional by
Fourier inversion over balls.  A ``GaussianSpec`` is one such law; a
product measure is the tuple of its coordinate laws (``product_laws``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .padic import PAdicValue, frac_part

TWO_PI = 2.0 * math.pi


def character(gamma: PAdicValue, x: PAdicValue) -> Fraction:
    """The additive character chi_gamma(x) = exp(2 pi i {gamma x}_p) as its
    exact angle: the p-adic fractional part of gamma * x, a ``Fraction`` of
    a turn in [0, 1) whose denominator is a power of p.  Character values
    multiply by adding angles mod 1, and conjugation negates an angle.

    The product is formed at working precision, so the angle is exact as
    long as the digits of gamma * x at negative powers of p fall inside the
    mantissa window (keep |gamma * x| <= p**n).
    """
    return frac_part(gamma * x)


class AngleTally:
    """Accumulates exact character angles for later complex averaging.

    Besides unit vectors, a tally may receive exact-zero contributions
    (``add_zero``): the conditional expectation of a character whose angle
    window exceeds the sampled mantissa is exactly zero, and tallying that
    value keeps the estimator unbiased for the untruncated law.
    """

    __slots__ = ("p", "_counts", "_total", "_zeros")

    def __init__(self, p: int):
        self.p = p
        self._counts: dict[tuple[int, int], int] = {}
        self._total = 0
        self._zeros = 0

    def add_zero(self, count: int = 1) -> None:
        self._zeros += count
        self._total += count

    def add_raw(self, num: int, kexp: int, count: int = 1) -> None:
        """Record an angle num / p**kexp (not necessarily reduced)."""
        p = self.p
        if kexp > 0:
            num %= p**kexp
        while kexp > 0 and num % p == 0:
            num //= p
            kexp -= 1
        if kexp <= 0:
            key = (0, 0)
        else:
            key = (num, kexp)
        self._counts[key] = self._counts.get(key, 0) + count
        self._total += count

    @property
    def total(self) -> int:
        return self._total

    def _vectors(self):
        """(count, unit vector) per angle, in first-insertion order."""
        p = self.p
        for (num, k), cnt in self._counts.items():
            yield cnt, (1.0 + 0j if k == 0
                        else cmath.exp(1j * TWO_PI * num / p**k))

    def mean(self) -> complex:
        if self._total == 0:
            return 0j
        acc = 0j
        for cnt, z in self._vectors():
            acc += cnt * z
        return acc / self._total

    def mean_stderr(self) -> tuple[complex, float]:
        """Empirical mean and the larger componentwise standard error."""
        mu = self.mean()
        if self._total <= 1:
            return mu, 0.0
        sre = self._zeros * mu.real**2
        sim = self._zeros * mu.imag**2
        for cnt, z in self._vectors():
            sre += cnt * (z.real - mu.real) ** 2
            sim += cnt * (z.imag - mu.imag) ** 2
        s = self._total
        return mu, math.sqrt(max(sre, sim) / (s - 1) / s)


# -- q-Gaussian specifications -------------------------------------------------


def _lq_spreads(zetas, q: float) -> tuple[float, ...]:
    """The spreads ``|zeta_j|**q`` of an L_q diagonal family (at least one
    zeta, all nonzero, norms strictly decreasing): the one rule of product
    measures and the series sampler."""
    zetas = tuple(zetas)
    if not zetas or any(z.is_zero for z in zetas) or any(
            b.v <= a.v for a, b in zip(zetas, zetas[1:])):
        raise ValueError("not L_q: the zetas must be nonzero with strictly "
                         "decreasing norms")
    return tuple(z.norm() ** q for z in zetas)


@dataclass(frozen=True)
class GaussianSpec:
    """One q-Gaussian law: spread ``beta`` (finite, > 0), ``q >= 1`` and
    shift ``gamma`` (omitted: the exact zero), so equal laws are equal
    specs.  Normalization is implicit: shell probabilities sum to one."""

    p: int
    n: int
    beta: float
    q: float
    gamma: PAdicValue | None = None

    def __post_init__(self):
        if not self.q >= 1:
            raise ValueError("q must be >= 1")
        if not 0 < self.beta <= sys.float_info.max:
            raise ValueError("beta must be finite and positive")
        object.__setattr__(self, "beta", float(self.beta))
        if self.gamma is None:
            object.__setattr__(self, "gamma", PAdicValue.zero(self.p, self.n))


def product_laws(p, n, zetas, q, gammas=None) -> tuple[GaussianSpec, ...]:
    """The coordinate laws of a product q-Gaussian: law j has spread
    ``|zeta_j|**q`` (``_lq_spreads``) and shift ``gammas[j]`` (default
    zero), whose norms must not rise."""
    spreads = _lq_spreads(zetas, q)
    if gammas is None:
        gammas = (None,) * len(spreads)
    else:
        gammas = tuple(gammas)
        if len(gammas) != len(spreads):
            raise ValueError("one shift per zeta coefficient")
        gn = [g.norm() for g in gammas]
        if any(b > a + 1e-15 for a, b in zip(gn, gn[1:])):
            raise ValueError("shift sequence does not decay")
    return tuple(GaussianSpec(p, n, b, q, g) for b, g in zip(spreads, gammas))


def gaussian_char(laws, g, h: PAdicValue) -> complex:
    """Characteristic functional of the projection along the functional g,
    one coefficient per coordinate law (one law is the 1-tuple; all share
    p, n and q): ``exp(-(sum_j beta_j |g_j|**q) |h|**q) * chi_{g(gamma)}(h)``.
    Modulus is at most 1, with equality only when the exponent vanishes.
    """
    laws, g = tuple(laws), tuple(g)
    if len(g) != len(laws):
        raise ValueError("functional length does not match the coefficient family")
    if len({(law.p, law.n, law.q) for law in laws}) != 1:
        raise ValueError("the laws must share p, n and q")
    p, n, q = laws[0].p, laws[0].n, laws[0].q
    b_eff = sum(law.beta * gi.norm() ** q for law, gi in zip(laws, g))
    modulus = math.exp(-b_eff * h.norm() ** q) if not h.is_zero else 1.0
    shift = PAdicValue.zero(p, n)
    for gi, law in zip(g, laws):
        if not law.gamma.is_zero:
            shift = shift + gi * law.gamma
    if shift.is_zero:
        return complex(modulus)
    return modulus * cmath.exp(1j * TWO_PI * float(character(shift, h)))


# -- shell distribution ---------------------------------------------------------


def shell_bounds(p: int, tail_tol: float) -> tuple[int, int]:
    """Lowest and highest shell m whose weight stays inside the float range.

    ``ball_probability`` at m computes ``p**(-m)`` and ``p**m``, and stops
    its series once a term falls below ``tail_tol`` times a partial sum
    near ``p**(-m)``; a shell table also evaluates the ball just below its
    lowest shell.  So ``p**(1 - lowest)`` and ``p**highest`` must be finite
    floats, and ``tail_tol * p**(-highest - 1)`` at least the least
    positive float ``2**-1074`` (tail_tol > 0).
    """
    big = int(sys.float_info.max)
    top = int(math.log(big, p))     # float estimate, made exact below
    while p ** (top + 1) <= big:
        top += 1
    while p ** top > big:
        top -= 1
    tail = int((math.log(tail_tol) + 1074 * math.log(2)) / math.log(p)) - 1
    return 1 - top, min(top, tail)


def ball_probability(spec: GaussianSpec, m: int, tail_tol: float = 1e-12) -> float:
    """P(|x - gamma| <= p**m) by Fourier inversion over the ball:
    ``p**m (1 - 1/p) * sum_{j <= -m} exp(-beta p**(j q)) p**j``.

    The series over j is truncated once a term drops below tail_tol times
    the partial sum.
    """
    p, beta, q = spec.p, spec.beta, spec.q
    total = 0.0
    j = -m
    iterations = 0
    while True:
        try:
            e = math.exp(-beta * float(p) ** (j * q))
        except OverflowError:
            e = 0.0
        term = e * float(p) ** j
        total += term
        j -= 1
        iterations += 1
        if total > 0 and term < tail_tol * total:
            break
        if iterations > 100000:
            raise ValueError("tail")
    return float(p) ** m * (1.0 - 1.0 / p) * total


@dataclass(frozen=True)
class ShellTable:
    """Norm-shell weights P(|x - gamma| = p**m) for m_lo <= m <= m_hi,
    plus the explicitly declared tail masses outside that range."""

    m_lo: int
    m_hi: int
    weights: tuple[float, ...]
    lower_tail: float
    upper_tail: float

    def __post_init__(self):
        # one weight per shell; m_lo > m_hi is the empty table
        if len(self.weights) != max(self.m_hi - self.m_lo + 1, 0):
            raise ValueError(f"{len(self.weights)} weights for the shells "
                             f"{self.m_lo}..{self.m_hi}")

    def rows(self):
        return [(self.m_lo + i, w) for i, w in enumerate(self.weights)]

    def total_mass(self) -> float:
        return sum(self.weights) + self.lower_tail + self.upper_tail

    def cdf(self):
        acc = self.lower_tail
        out = []
        for w in self.weights:
            acc += w
            out.append(acc)
        return out


def shell_distribution(spec: GaussianSpec, m_lo: int | None = None,
                       m_hi: int | None = None,
                       tail_tol: float = 1e-12) -> ShellTable:
    """Exact-inversion shell weights of a q-Gaussian law.

    When m_lo / m_hi are omitted the range is widened until the declared
    tails fall below tail_tol.  Every shell must lie within
    ``shell_bounds(p, tail_tol)``; otherwise ValueError.
    """
    lowest, highest = shell_bounds(spec.p, tail_tol)

    def inside(lo, hi):
        if lo < lowest or hi > highest:
            raise ValueError(f"shells {lo}..{hi} leave the float range "
                             f"{lowest}..{highest}")
        return lo, hi

    # each ball once: the widening loops probe shells the table reads again
    cdf = cache(lambda m: ball_probability(spec, m, tail_tol))

    center = math.log(max(spec.beta, 1e-300)) / (spec.q * math.log(spec.p))
    lo, hi = inside(m_lo if m_lo is not None else int(math.floor(center)) - 4,
                    m_hi if m_hi is not None else int(math.ceil(center)) + 4)
    while m_lo is None and cdf(lo - 1) > tail_tol:
        lo, hi = inside(lo - 1, hi)
    while m_hi is None and 1.0 - cdf(hi) > tail_tol:
        lo, hi = inside(lo, hi + 1)
    cdf_prev = cdf(lo - 1)
    lower = cdf_prev
    weights = []
    for m in range(lo, hi + 1):
        cdf_m = cdf(m)
        w = cdf_m - cdf_prev
        if -1e-12 < w < 0.0:
            w = 0.0  # float noise only; genuine negativity stays visible
        weights.append(w)
        cdf_prev = cdf_m
    return ShellTable(m_lo=lo, m_hi=hi, weights=tuple(weights),
                      lower_tail=lower, upper_tail=1.0 - cdf_prev)


def shell_nonnegativity_report(specs, m_lo: int = -40, m_hi: int = 40):
    """Smallest raw shell weight per spec (before noise clamping).

    Verifies numerically that the Fourier inversion yields a nonnegative
    measure over the supported parameter grid; negative minima are reported
    rather than assumed impossible.
    """
    out = []
    for spec in specs:
        prev = ball_probability(spec, m_lo)
        worst = math.inf
        for m in range(m_lo + 1, m_hi + 1):
            cur = ball_probability(spec, m)
            worst = min(worst, cur - prev)
            prev = cur
        out.append((spec, worst))
    return out
