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
series on its convergence domain, summed once for a square matrix
(``_exp_series``): ``padic_exp`` is its 1 x 1 case and
``evolution.ExpEvolution`` its matrix case.
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
    """Exponent of the largest power of p dividing n; ValueError at 0."""
    if not n:
        raise ValueError("p-adic valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# largest digit-text table qp_str builds for one prime
_TEXT_TABLE_SIZE = 4096


@lru_cache(maxsize=None)
def _digit_tables(p: int, n: int) -> tuple[tuple, tuple, int]:
    """How qp_str writes an n-digit mantissa m: ``(low, high, mod)``.
    With h = ceil(n/2) and mod = p**h <= _TEXT_TABLE_SIZE, the text is
    ``low[m % mod] + high[m // mod]``, each high text led by a space.
    Past the table size all three are empty (mod = 0)."""
    k = (n + 1) // 2
    if p**k > _TEXT_TABLE_SIZE:
        return (), (), 0
    return _digit_texts(p, k), _digit_texts(p, n - k, " "), _pow(p, k)


@lru_cache(maxsize=None)
def _digit_texts(p: int, k: int, lead: str = "") -> tuple[str, ...]:
    """The digit text of every k-digit mantissa c < p**k, indexed by c:
    ``lead``, then the digits lowest first, space separated; "" at k = 0."""
    if not k:
        return ("",)
    digits = [f"{lead}{d}" for d in range(p)]
    if k == 1:
        return tuple(digits)
    return tuple(f"{d} {tail}" for tail in _digit_texts(p, k - 1)
                 for d in digits)


# Miller-Rabin over the first 13 prime bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017); the
# first 12 bases alone admit 318665857834031151167461.
PRIME_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin primality test; raises ValueError for
    k >= PRIME_LIMIT, where the bases no longer decide."""
    if k >= PRIME_LIMIT:
        raise ValueError(f"p={k} is not below the primality limit "
                         f"{PRIME_LIMIT}")
    if k < 2:
        return False
    for b in _PRIME_BASES:
        if k % b == 0:
            return k == b
    d, s = k - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True, init=False)
class PAdicValue:
    """An element of Q_p at working precision ``n``.

    Fields:
        p: the prime.
        n: working precision (mantissa length in digits).
        v: valuation, the exponent of the leading power of p.
        m: mantissa, an integer in [1, p**n) with ``m % p != 0``; the exact
           zero is stored as ``m == 0`` (with ``v == 0``).

    ``__init__`` is hand-written and stores each field through its slot
    descriptor: the generated frozen one calls ``object.__setattr__`` per
    field and costs about 1.7 times as much.  The instance stays frozen.
    """

    p: int
    n: int
    v: int
    m: int

    def __init__(self, p: int, n: int, v: int, m: int) -> None:
        _set_p(self, p)
        _set_n(self, n)
        _set_v(self, v)
        _set_m(self, m)

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
        return cls._from_cell(p, n, k, 0)

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
            return cls(p, n, 0, 0)
        while num % p == 0:
            num //= p
            exp += 1
        return cls(p, n, exp, num % _pow(p, n))

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
        """Canonical text form ``QP(p=...,v=...,d=d0 d1 ... d{n-1})``, in
        two lookups into the ``_digit_tables`` or digit by digit."""
        low, high, mod = _digit_tables(self.p, self.n)
        if mod:
            hi, lo = divmod(self.m, mod)
            ds = low[lo] + high[hi]
        else:
            ds = " ".join([str(d) for d in self.digits()])
        return f"QP(p={self.p},v={self.v},d={ds})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.qp_str()

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "PAdicValue":
        """Parse the canonical text form; exact round-trip of qp_str.

        Refuses any text that does not denote one value at precision n:
        fields other than p, v and d, a p that is not prime or not below
        PRIME_LIMIT, and more digits than n.
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


_set_p, _set_n, _set_v, _set_m = (vars(PAdicValue)[f].__set__ for f in "pnvm")


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
        """p**(radius_exp + depth) points; the one check that a depth has a
        grid at all, so a negative total depth raises ValueError."""
        levels = self.radius_exp + depth
        if levels < 0:
            raise ValueError(f"depth {depth}: radius_exp + depth = {levels} "
                             "is negative")
        return _pow(self.p, levels)

    def point(self, k: int, depth: int) -> PAdicValue:
        """Grid representative number k at the given depth."""
        if k >= self.grid_size(depth) or k < 0:
            raise ValueError("grid index out of range")
        c, r = self.center, self.radius_exp
        off = PAdicValue._from_cell(c.p, c.n, k, -r)
        return c + off if c.m else off

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


def mahler_basis(x: PAdicValue, count: int) -> list[PAdicValue]:
    """[Q_0(x), ..., Q_count(x)] of the binomial polynomials
    Q_m(x) = x(x-1)...(x-m+1)/m!, in one pass of Q_m = Q_{m-1} (x-m+1) / m
    with exact division.  Any x in Q_p; on Z_p each Q_m has sup norm 1."""
    p, n = x.p, x.n
    out = [PAdicValue.one(p, n)]
    for m in range(1, count + 1):
        q = out[-1] * (x - PAdicValue.from_int(m - 1, p, n))
        out.append(q / PAdicValue.from_int(m, p, n))
    return out


def mahler_poly(m: int, x: PAdicValue) -> PAdicValue:
    """The m-th binomial polynomial on Z_p; requires x in Z_p."""
    if not BallSpec.unit(x.p, x.n).contains(x):
        raise ValueError("domain")
    return mahler_basis(x, m)[m]


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
    if z.m and z.v < exp_domain_valuation(z.p):
        raise ValueError("EXP divergence")
    return _exp_series(z, ((PAdicValue.one(z.p, z.n),),))[0][0]


def _exp_series(z: PAdicValue, a: tuple[tuple[PAdicValue, ...], ...]
                ) -> tuple[tuple[PAdicValue, ...], ...]:
    """EXP(zA) for a square matrix A of values at z's precision, summed
    until every entry of a term is zero or has valuation above n.

    In the domain, v(zA) >= exp_domain_valuation(p), the k-th term has
    valuation at least k v(zA) - (k - 1)/(p - 1), so the series leaves the
    precision.  Outside it the series is summed only if it ends within dim
    terms, as it does for a nilpotent A; otherwise ValueError.
    """
    p, n, dim = z.p, z.n, len(a)
    one, zero = PAdicValue.one(p, n), PAdicValue.zero(p, n)
    total = term = tuple(tuple(one if i == j else zero for j in range(dim))
                         for i in range(dim))
    if z.m == 0:
        return total
    va = min((x.v for row in a for x in row if x.m), default=None)
    in_domain = va is None or z.v + va >= exp_domain_valuation(p)
    k = 0
    while True:
        k += 1
        # term <- term * (z A) / k
        zk = z / PAdicValue.from_int(k, p, n)
        term = tuple(tuple(sum((term[i][l] * a[l][j] for l in range(dim)),
                               zero) * zk for j in range(dim))
                     for i in range(dim))
        worst = min((x.v for row in term for x in row if x.m), default=None)
        if worst is None or worst > n:
            return total
        if not in_domain and k == dim:
            raise ValueError(
                f"EXP divergence: |z A| = {p}**{-(z.v + va)} is outside the "
                f"convergence domain |z A| < p**(-1/(p-1)), and the series "
                f"does not end within dim = {dim} terms")
        total = tuple(tuple(x + y for x, y in zip(ra, rb))
                      for ra, rb in zip(total, term))
