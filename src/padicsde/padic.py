"""Fixed-precision arithmetic in the field of p-adic numbers.

A value is stored as ``mant * p**val`` with a mantissa of at most N base-p
digits (N is the working precision) whose lowest digit is nonzero.  Every
stored value is therefore an *exact* rational number; arithmetic computes the
exact result and then truncates the mantissa back to N significant digits, so
each operation is correct modulo ``p**(val + N)``.  The ultrametric absolute
value is ``|x| = p**(-val)`` and ``|0| = 0``.

The module also provides digit truncations (the approximation chain used by
the antiderivation operators), the exact p-adic fractional part, the binomial
(Mahler) polynomial basis on the p-adic integers, and the p-adic exponential
series on its convergence domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _pow(p: int, k: int) -> int:
    return p**k


def _vp(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n (n != 0)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, slots=True)
class PAdicValue:
    """An element of Q_p at working precision ``n``.

    Fields:
        p: the prime.
        n: working precision (mantissa length in digits).
        v: valuation, the exponent of the leading power of p.
        m: mantissa, an integer in [1, p**n) with ``m % p != 0``; the exact
           zero is stored as ``m == 0`` (with ``v == 0``).
    """

    p: int
    n: int
    v: int
    m: int

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, n: int) -> "PAdicValue":
        return cls(p, n, 0, 0)

    @classmethod
    def one(cls, p: int, n: int) -> "PAdicValue":
        return cls(p, n, 0, 1)

    @classmethod
    def from_int(cls, k: int, p: int, n: int) -> "PAdicValue":
        """Truncation of the integer k to n significant p-adic digits."""
        if k == 0:
            return cls.zero(p, n)
        v = _vp(k, p)
        m = (k // _pow(p, v)) % _pow(p, n)
        return cls(p, n, v, m)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, n: int) -> "PAdicValue":
        """Truncation of num/den to n significant digits (den nonzero)."""
        if den == 0:
            raise ZeroDivisionError("zero inverse")
        if num == 0:
            return cls.zero(p, n)
        vn = _vp(num, p)
        vd = _vp(den, p)
        unum = num // _pow(p, vn)
        uden = den // _pow(p, vd)
        m = (unum * pow(uden, -1, _pow(p, n))) % _pow(p, n)
        return cls(p, n, vn - vd, m)

    @classmethod
    def from_fraction(cls, fr: Fraction, p: int, n: int) -> "PAdicValue":
        return cls.from_rational(fr.numerator, fr.denominator, p, n)

    @classmethod
    def _from_cell(cls, p: int, n: int, num: int, exp: int) -> "PAdicValue":
        """Round the exact value ``num * p**exp`` to n significant digits."""
        if num == 0:
            return cls.zero(p, n)
        s = _vp(num, p)
        m = (num // _pow(p, s)) % _pow(p, n)
        return cls(p, n, exp + s, m)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    def norm(self) -> float:
        """Ultrametric absolute value p**(-v), 0.0 for zero."""
        if self.m == 0:
            return 0.0
        try:
            return float(self.p) ** (-self.v)
        except OverflowError:
            return math.inf

    def digits(self) -> tuple[int, ...]:
        """The n mantissa digits, lowest power first."""
        out = []
        m = self.m
        for _ in range(self.n):
            m, d = divmod(m, self.p)
            out.append(d)
        return tuple(out)

    def as_fraction(self) -> Fraction:
        """The exact rational this value denotes."""
        if self.m == 0:
            return Fraction(0)
        if self.v >= 0:
            return Fraction(self.m * _pow(self.p, self.v))
        return Fraction(self.m, _pow(self.p, -self.v))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "PAdicValue") -> int:
        if self.p != other.p:
            raise ValueError("prime mismatch")
        return min(self.n, other.n)

    def __add__(self, other: "PAdicValue") -> "PAdicValue":
        n = self._check(other)
        if self.m == 0:
            return other if other.n == n else \
                PAdicValue._from_cell(self.p, n, other.m, other.v)
        if other.m == 0:
            return self if self.n == n else \
                PAdicValue._from_cell(self.p, n, self.m, self.v)
        v0 = min(self.v, other.v)
        num = self.m * _pow(self.p, self.v - v0) + other.m * _pow(self.p, other.v - v0)
        return PAdicValue._from_cell(self.p, n, num, v0)

    def __neg__(self) -> "PAdicValue":
        if self.m == 0:
            return self
        return PAdicValue(self.p, self.n, self.v, _pow(self.p, self.n) - self.m)

    def __sub__(self, other: "PAdicValue") -> "PAdicValue":
        n = self._check(other)
        if other.m == 0:
            return self if self.n == n else \
                PAdicValue._from_cell(self.p, n, self.m, self.v)
        if self.m == 0:
            neg = -other
            return neg if neg.n == n else \
                PAdicValue._from_cell(self.p, n, neg.m, neg.v)
        v0 = min(self.v, other.v)
        num = self.m * _pow(self.p, self.v - v0) - other.m * _pow(self.p, other.v - v0)
        return PAdicValue._from_cell(self.p, n, num, v0)

    def __mul__(self, other: "PAdicValue") -> "PAdicValue":
        n = self._check(other)
        if self.m == 0 or other.m == 0:
            return PAdicValue.zero(self.p, n)
        return PAdicValue(self.p, n, self.v + other.v,
                          (self.m * other.m) % _pow(self.p, n))

    def inv(self) -> "PAdicValue":
        if self.m == 0:
            raise ZeroDivisionError("zero inverse")
        return PAdicValue(self.p, self.n, -self.v,
                          pow(self.m, -1, _pow(self.p, self.n)))

    def __truediv__(self, other: "PAdicValue") -> "PAdicValue":
        return self * other.inv()

    def __pow__(self, k: int) -> "PAdicValue":
        if k < 0:
            return self.inv() ** (-k)
        out = PAdicValue.one(self.p, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale_pow(self, k: int) -> "PAdicValue":
        """Exact multiplication by p**k."""
        if self.m == 0:
            return self
        return PAdicValue(self.p, self.n, self.v + k, self.m)

    # -- comparisons at precision -------------------------------------------

    def agrees_abs(self, other: "PAdicValue", k: int) -> bool:
        """True when |self - other| <= p**(-k)."""
        d = self - other
        return d.m == 0 or d.v >= k

    # -- serialization -------------------------------------------------------

    def qp_str(self) -> str:
        """Canonical text form ``QP(p=...,v=...,d=d0 d1 ... d{n-1})``."""
        ds = " ".join(str(d) for d in self.digits())
        return f"QP(p={self.p},v={self.v},d={ds})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.qp_str()

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "PAdicValue":
        """Parse the canonical text form; exact round-trip of qp_str.

        Refuses any text that does not denote one value at precision n:
        fields other than p, v and d, a p that is not prime, and more
        digits than n.
        """
        body = text.strip()
        if not (body.startswith("QP(") and body.endswith(")")):
            raise ValueError(f"bad serialization: {text!r}")
        parts = [part.split("=", 1) for part in body[3:-1].split(",")]
        fields = dict(part for part in parts if len(part) == 2)
        if len(parts) != 3 or sorted(fields) != ["d", "p", "v"]:
            raise ValueError(f"fields must be p, v and d: {text!r}")
        p = int(fields["p"])
        v = int(fields["v"])
        digs = [int(d) for d in fields["d"].split()]
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if n is None:
            n = len(digs)
        if not 0 < len(digs) <= n:
            raise ValueError(f"{len(digs)} digits for precision {n}")
        m = 0
        for i, d in enumerate(digs):
            if not 0 <= d < p:
                raise ValueError(f"digit out of range: {d}")
            m += d * _pow(p, i)
        if m == 0:
            return cls.zero(p, n)
        if m % p == 0:
            raise ValueError("leading digit must be nonzero")
        return cls(p, n, v, m)


@dataclass(frozen=True, slots=True)
class BallSpec:
    """A ball ``|x - center| <= p**radius_exp`` with a canonical digit grid.

    The grid at depth D enumerates the p**(radius_exp + D) representatives
    ``center + k * p**(-radius_exp)`` for k = 0 .. p**(radius_exp+D) - 1;
    the marked point of the ball is its center (grid index 0).
    """

    center: PAdicValue
    radius_exp: int = 0

    @property
    def p(self) -> int:
        return self.center.p

    @property
    def n(self) -> int:
        return self.center.n

    @classmethod
    def unit(cls, p: int, n: int) -> "BallSpec":
        """The p-adic integers Z_p with marked point 0."""
        return cls(PAdicValue.zero(p, n), 0)

    def contains(self, x: PAdicValue) -> bool:
        d = x - self.center
        return d.m == 0 or d.v >= -self.radius_exp

    def grid_size(self, depth: int) -> int:
        return _pow(self.p, self.radius_exp + depth)

    def point(self, k: int, depth: int) -> PAdicValue:
        """Grid representative number k at the given depth."""
        if not 0 <= k < self.grid_size(depth):
            raise ValueError("grid index out of range")
        off = PAdicValue.from_int(k, self.p, self.n).scale_pow(-self.radius_exp)
        return self.center + off

    def index_of(self, x: PAdicValue, depth: int) -> int:
        """Grid index of an exact representative; raises if x is not one."""
        off = (x - self.center).scale_pow(self.radius_exp)
        fr = off.as_fraction()
        if fr.denominator != 1 or not 0 <= fr.numerator < self.grid_size(depth):
            raise ValueError("grid incomplete")
        return int(fr.numerator)


# -- digit truncations -------------------------------------------------------


def digit_prefix(t: PAdicValue, j: int) -> PAdicValue:
    """Truncation of t keeping its first j mantissa digits.

    The increments ``digit_prefix(t, j+1) - digit_prefix(t, j)`` are the
    single-digit steps ``d_j * p**(v+j)`` that drive the antiderivation
    chains; j = 0 yields zero and j = n reproduces t.
    """
    if j < 0 or j > t.n:
        raise ValueError("beyond precision")
    if t.m == 0 or j == 0:
        return PAdicValue.zero(t.p, t.n)
    m = t.m % _pow(t.p, j)
    return PAdicValue(t.p, t.n, t.v, m)


def frac_part(y: PAdicValue) -> Fraction:
    """Exact p-adic fractional part: the sum of the digits at negative
    powers of p, a rational in [0, 1) with denominator a power of p."""
    if y.m == 0 or y.v >= 0:
        return Fraction(0)
    den = _pow(y.p, -y.v)
    return Fraction(y.m % den, den)


# -- Mahler (binomial) basis --------------------------------------------------


def mahler_poly(m: int, x: PAdicValue) -> PAdicValue:
    """The m-th binomial polynomial x(x-1)...(x-m+1)/m! on Z_p.

    Computed by the integer product formula with exact division by m!.
    Requires x in Z_p (valuation >= 0); sup norm on Z_p is 1 for every m.
    """
    if not (x.m == 0 or x.v >= 0):
        raise ValueError("domain")
    p, n = x.p, x.n
    out = PAdicValue.one(p, n)
    for i in range(1, m + 1):
        out = out * (x - PAdicValue.from_int(i - 1, p, n))
        out = out / PAdicValue.from_int(i, p, n)
    return out


# -- p-adic exponential --------------------------------------------------------


def exp_domain_valuation(p: int) -> int:
    """Minimal valuation for convergence of the exponential series."""
    return 2 if p == 2 else 1


def padic_exp(z: PAdicValue) -> PAdicValue:
    """The exponential power series sum z**k / k! at working precision.

    Converges only for |z| < p**(-1/(p-1)), i.e. valuation >= 1 for odd p
    and >= 2 for p = 2; outside that domain the series diverges and a
    ValueError is raised.
    """
    p, n = z.p, z.n
    if z.m == 0:
        return PAdicValue.one(p, n)
    if z.v < exp_domain_valuation(p):
        raise ValueError("EXP divergence")
    total = PAdicValue.one(p, n)
    term = PAdicValue.one(p, n)
    k = 0
    while True:
        k += 1
        term = term * z / PAdicValue.from_int(k, p, n)
        if term.m == 0 or term.v > n:
            break
        total = total + term
    return total
