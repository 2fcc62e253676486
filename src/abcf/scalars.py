"""Exact scalar arithmetic on the extended real line.

Three scalar backings coexist and never mix silently:

* arbitrary-precision rationals (``fractions.Fraction``),
* quadratic surds ``(p + q*sqrt(d))/r`` kept in a canonical form,
* plain floats, compared through an explicit tolerance supplied by the
  caller (see :class:`abcf.params.Params`).

The projective line is compactified by a single unsigned point ``INF``.
Separate order sentinels ``NEG_INF``/``POS_INF`` exist for geometry
(box and step-function coordinates), where the two ends of the line are
distinguishable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import copysign, gcd, isqrt
from typing import Iterator, Union


class MixedFieldError(ArithmeticError):
    """Arithmetic attempted between two distinct quadratic fields."""


class PrecisionError(ArithmeticError):
    """A certified comparison failed to separate two values."""


class Infinity:
    """The single unsigned point at infinity of the projective line."""

    _instance = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __hash__(self) -> int:
        return hash("abcf.Infinity")

    def __eq__(self, other: object) -> bool:
        return other is self

    def __neg__(self) -> "Infinity":
        return self


INF = Infinity()


class _Sentinel:
    __slots__ = ("_name", "_float")

    def __init__(self, name: str, value: float) -> None:
        self._name = name
        self._float = value

    def __repr__(self) -> str:
        return self._name

    def __float__(self) -> float:
        return self._float


#: Order sentinels for step/box coordinates: NEG_INF < every real < POS_INF.
NEG_INF = _Sentinel("-oo", float("-inf"))
POS_INF = _Sentinel("+oo", float("inf"))


# Primes used to peel square factors out of surd discriminants.  Large
# discriminants (they arise in the exceptional-set module) are left with
# whatever square factors survive this sieve, so one value can have two
# representations; Surd equality, hashing and arithmetic do not depend on it.
_PRIMES = [n for n in range(2, 998) if all(n % k for k in range(2, isqrt(n) + 1))]


def _extract_square(d: int) -> tuple[int, int]:
    """Write d = s**2 * d2 with d2 free of small square factors.

    Returns (s, d2); d2 == 1 signals that d was a perfect square.
    """
    s = 1
    for p in _PRIMES:
        p2 = p * p
        if p2 > d:
            break
        while d % p2 == 0:
            d //= p2
            s *= p
    r = isqrt(d)
    if r * r == d:
        return s * r, 1
    return s, d


def _new(p: int, q: int, r: int, d: int) -> "Scalar":
    """(p + q*sqrt(d))/r in canonical form; d is already free of small squares."""
    if q == 0:
        return Fraction(p, r)
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(p, q, r)
    return Surd(p // g, q // g, r // g, d)


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d), from the signs of p, q and p**2 vs q**2*d."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    t = p * p - q * q * d
    return sp if t > 0 else -sp if t < 0 else 0


class Surd:
    """A canonical quadratic surd (p + q*sqrt(d))/r with integer p, q, r.

    Invariants: r > 0, gcd(p, q, r) == 1, q != 0, d > 1 not a perfect
    square.  Use :meth:`make` to construct; it collapses rational values
    to ``Fraction``.
    """

    __slots__ = ("p", "q", "r", "d", "_float")

    def __init__(self, p: int, q: int, r: int, d: int) -> None:
        self.p = p
        self.q = q
        self.r = r
        self.d = d

    @staticmethod
    def make(p: int, q: int, r: int, d: int) -> "Scalar":
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if d < 0:
            raise ValueError("negative discriminant")
        if d == 0:
            return Fraction(p, r)
        s, d2 = _extract_square(d)
        if d2 == 1:
            return Fraction(p + q * s, r)
        return _new(p, q * s, r, d2)

    def __repr__(self) -> str:
        return f"({self.p}{self.q:+}*sqrt({self.d}))/{self.r}"

    def _key(self) -> tuple:
        # p/r, q^2 d/r^2 and the sign of q fix the value whatever square
        # factors d keeps
        q, r = self.q, self.r
        return Fraction(self.p, r), Fraction(q * q * self.d, r * r), q > 0

    def __hash__(self) -> int:
        return hash(self._key())

    # -- arithmetic on integer triples (p, q, r) over sqrt(self.d) -------

    def _parts(self, other: object) -> tuple[int, int, int] | None:
        """other as (p + q*sqrt(self.d))/r, rescaled when sqrt(other.d) is
        a rational multiple of sqrt(self.d); None for foreign types."""
        if isinstance(other, Surd):
            if other.d == self.d:
                return other.p, other.q, other.r
            m = isqrt(self.d * other.d)
            if m * m != self.d * other.d:
                raise MixedFieldError(f"sqrt({self.d}) vs sqrt({other.d})")
            return other.p * self.d, other.q * m, other.r * self.d
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other: "Number") -> "Scalar":
        t = self._parts(other)
        if t is None:
            return NotImplemented
        p, q, r = t
        return _new(self.p * r + p * self.r, self.q * r + q * self.r, self.r * r, self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other: "Number") -> "Scalar":
        return self + (-other)

    def __rsub__(self, other: "Number") -> "Scalar":
        return (-self) + other

    def __mul__(self, other: "Number") -> "Scalar":
        t = self._parts(other)
        if t is None:
            return NotImplemented
        p, q, r = t
        p1, q1 = self.p, self.q
        return _new(p1 * p + q1 * q * self.d, p1 * q + q1 * p, self.r * r, self.d)

    __rmul__ = __mul__

    def _quotient(self, num: tuple, den: tuple) -> "Scalar":
        """(p1 + q1 sqrt d)/r1 over (p2 + q2 sqrt d)/r2, times the conjugate."""
        (p1, q1, r1), (p2, q2, r2) = num, den
        norm = p2 * p2 - q2 * q2 * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return _new(r2 * (p1 * p2 - q1 * q2 * self.d), r2 * (q1 * p2 - p1 * q2), r1 * norm, self.d)

    def __truediv__(self, other: "Number") -> "Scalar":
        t = self._parts(other)
        if t is None:
            return NotImplemented
        return self._quotient((self.p, self.q, self.r), t)

    def __rtruediv__(self, other: "Number") -> "Scalar":
        t = self._parts(other)
        if t is None:
            return NotImplemented
        return self._quotient(t, (self.p, self.q, self.r))

    # -- order ---------------------------------------------------------

    def _cmp(self, other: "Number") -> int:
        t = self._parts(other)
        if t is None:
            raise TypeError(f"cannot order Surd and {type(other).__name__}")
        p, q, r = t
        return _sign(self.p * r - p * self.r, self.q * r - q * self.r, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Surd):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return False  # canonical surds are irrational
        return NotImplemented

    def __lt__(self, other: "Number") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Number") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Number") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Number") -> bool:
        return self._cmp(other) >= 0

    # -- numeric views ---------------------------------------------------

    def __float__(self) -> float:
        """The value correctly rounded, however much p and q*sqrt(d) cancel:
        the enclosure is refined until its ends round to one float (int / int
        rounds correctly) and share a sign.  The result is kept, so each
        surd walks its enclosures once."""
        try:
            return self._float
        except AttributeError:
            pass
        for ((lo, hi, den),) in _enclosures(self):
            if lo / den == hi / den and (lo < 0) == (hi < 0):
                self._float = lo / den
                return self._float
        raise PrecisionError(f"float of {self!r} undecided")  # pragma: no cover


Scalar = Union[Fraction, Surd, float]
ExtReal = Union[Fraction, Surd, float, Infinity]
Bound = Union[Fraction, Surd, float, _Sentinel]

Number = Union[int, Fraction, Surd]


def enclosure(x: Number, bits: int = 64) -> tuple[int, int, int]:
    """Integers (lo, hi, den), den > 0, with lo/den <= x <= hi/den.  A
    rational n/d gives (n, n, d).  A surd (p + q*sqrt(d))/r uses
    n/2**bits < sqrt(d) < (n+1)/2**bits with n = isqrt(d * 4**bits), so
    its ends lie |q|/r * 2**-bits apart.  Callers compare the ends by
    cross-multiplication; no gcd is taken."""
    if not isinstance(x, Surd):
        return x.numerator, x.numerator, x.denominator
    n, p, q = isqrt(x.d << (2 * bits)), x.p << bits, x.q
    lo, hi = (n, n + 1) if q > 0 else (n + 1, n)
    return p + q * lo, p + q * hi, x.r << bits


def _enclosures(*xs: Number, bits: int = 64, top: int = 1 << 20) -> Iterator[list]:
    """[enclosure(x, bits) for x in xs] at bits, 2*bits, ... up to top bits."""
    while bits <= top:
        yield [enclosure(x, bits) for x in xs]
        bits *= 2


def as_float(x: ExtReal | Bound) -> float:
    """Float view of a scalar or bound; INF and POS_INF give inf, NEG_INF
    -inf, and a value beyond float range the infinity of its sign."""
    if x is INF:
        return float("inf")
    try:
        return float(x)
    except OverflowError:
        return copysign(float("inf"), cmp_exact(x, 0))


def is_exact(x: object) -> bool:
    return isinstance(x, (int, Fraction, Surd))


def cmp_exact(x: Number, y: Number) -> int:
    """Exact three-way comparison of rationals/surds, any fields.  Rationals
    compare first as the floats p/q: int / int rounds correctly, hence
    monotonically, so unequal floats decide; equal ones (or an overflow)
    fall back to the sign of one cross-multiplication."""
    if isinstance(x, Surd) and isinstance(y, Surd) and x.d != y.d:
        if x == y:
            return 0
        for (xlo, xhi, xd), (ylo, yhi, yd) in _enclosures(x, y):
            if xhi * yd < ylo * xd:
                return -1
            if yhi * xd < xlo * yd:
                return 1
        raise PrecisionError(f"cannot separate {x!r} and {y!r}")
    if isinstance(x, Surd):
        return x._cmp(y)
    if isinstance(y, Surd):
        return -y._cmp(x)
    try:
        fx, fy = x.numerator / x.denominator, y.numerator / y.denominator
        if fx != fy:
            return 1 if fx > fy else -1
    except (OverflowError, AttributeError):  # beyond float range; floats
        x, y = Fraction(x), Fraction(y)
    t = x.numerator * y.denominator - y.numerator * x.denominator
    return (t > 0) - (t < 0)


def cmp_bound(u: Bound, v: Bound) -> int:
    """Three-way comparison including the NEG_INF/POS_INF sentinels."""
    if u is v:
        return 0
    if u is NEG_INF or v is POS_INF:
        return -1
    if u is POS_INF or v is NEG_INF:
        return 1
    if isinstance(u, float) or isinstance(v, float):
        fu, fv = as_float(u), as_float(v)
        return (fu > fv) - (fu < fv)
    return cmp_exact(u, v)


def floor_exact(x: Number) -> int:
    """Integer floor, exact for rationals and surds: the common floor of
    the ends of an enclosure (a rational's are equal)."""
    if not is_exact(x):
        raise TypeError(f"floor_exact expects an exact scalar, got {type(x)}")
    for ((lo, hi, den),) in _enclosures(x):
        if lo // den == hi // den:
            return lo // den
    raise PrecisionError(f"floor of {x!r} undecided")  # pragma: no cover


def _cf_digits(p: int, q: int) -> Iterator[tuple[int, bool]]:
    """The continued-fraction digits of p/q (q > 0) as (digit, last) pairs,
    in Lehmer's batches.

    While p > 0 is long, its top 64 bits P = p >> s and Q = q >> s enclose
    p/q strictly: P/(Q+1) < p/q < (P+1)/Q.  Euclid runs on both ends with
    small integers while their quotients agree and neither remainder is
    zero, keeping the matrix of its steps.  The numbers that begin with
    given digits form an interval, so the shared digits are those of p/q,
    and none of them is its last digit, as p/q lies strictly inside.  One
    product with the matrix then takes (p, q) past the whole batch.
    Otherwise (p short or negative, or the first quotients differ) one
    plain step is taken.
    """
    while q:
        s = p.bit_length() - 64
        if s > 0 and p > 0:
            P, Q = p >> s, q >> s
            p1, q1, p2, q2 = P, Q + 1, P + 1, Q
            A, B, C, D = 1, 0, 0, 1
            digits = []
            while q1 and q2:
                d = p1 // q1
                if d != p2 // q2:
                    break
                digits.append(d)
                A, B, C, D = C, D, A - d * C, B - d * D
                p1, q1, p2, q2 = q1, p1 - d * q1, q2, p2 - d * q2
            if digits:
                p, q = A * p + B * q, C * p + D * q
                for d in digits:
                    yield d, False
                continue
        d = p // q
        p, q = q, p - d * q
        yield d, not q


def simplest_in_interval(a: Fraction, b: Fraction) -> Fraction:
    """The rational with the smallest denominator in the closed [a, b]."""
    if b < a:
        raise ValueError("empty interval")
    return _simplest(a.numerator, a.denominator, b.numerator, b.denominator)


def _simplest(pa: int, qa: int, pb: int, qb: int) -> Fraction:
    """simplest_in_interval on [pa/qa, pb/qb], qa, qb > 0, not reduced.

    Reads the digits of both ends, each from its own stream (_cf_digits),
    while no integer lies between their complete quotients: both then
    share the digit n, and the interval maps to [1/(b - n), 1/(a - n)].
    The last digit is the ceiling of the lower end (at step 0 the integer
    nearest 0), and the answer is the convergent of the digits read.  The
    simplest rational of a closed interval is unique, so the batches
    cannot change it; they touch the long integers once per batch, not
    once per digit.  A common factor of p and q changes no digit.
    """
    lo, hi = _cf_digits(pa, qa), _cf_digits(pb, qb)
    h, h1, k, k1 = 1, 0, 0, 1  # convergents h/k and the one before
    while True:
        (dl, last), (du, _) = next(lo), next(hi)
        cl = dl + (not last)  # ceiling of the lower end; du floors the upper
        n = min(max(0, cl), du) if cl <= du else dl
        h, h1, k, k1 = n * h + h1, h, n * k + k1, k
        if cl <= du:
            return Fraction(h, k)
        lo, hi = hi, lo  # [1/(b - n), 1/(a - n)]: the ends swap


def midpoint_rational(x: Scalar, y: Scalar) -> Fraction:
    """A small-height rational strictly between x < y, valid across fields.

    Refines certified enclosures until they separate, then returns the
    simplest rational in the gap (small representations keep later orbit
    arithmetic on the result cheap).
    """
    for (xlo, xhi, xd), (ylo, yhi, yd) in _enclosures(x, y, bits=128, top=1 << 22):
        if yhi * xd < xlo * yd:
            raise ValueError("midpoint_rational expects x < y")
        if xhi * yd < ylo * xd:
            # the middle half of the gap, u/(xd*yd) to v/(xd*yd), so exact
            # endpoints stay outside; the 2**bits of the surd enclosures'
            # denominators is shifted out of the three integers, no gcd taken
            u, v, den = xhi * yd, ylo * xd, 4 * xd * yd
            lo, hi = 3 * u + v, u + 3 * v
            g = lo | hi | den
            s = (g & -g).bit_length() - 1
            return _simplest(lo >> s, den >> s, hi >> s, den >> s)
    raise PrecisionError(f"cannot separate {x!r} and {y!r}")


def format_scalar(x: ExtReal) -> str:
    """A rational as "n/d" or "n"; a surd, a float or INF as its repr."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


#: Named surd presets that parse_scalar accepts.
PRESETS: dict[str, Scalar] = {
    "golden": Surd.make(-1, 1, 2, 5),  # (sqrt(5) - 1)/2
    "-golden": Surd.make(1, -1, 2, 5),
}


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", integers, decimals (-> float), surd literals and PRESETS.

    The surd literal form mirrors :func:`format_scalar`:
    ``(p+q*sqrt(d))/r``.
    """
    s = text.strip().replace(" ", "")
    if s in PRESETS:
        return PRESETS[s]
    if re.fullmatch(r".*/[+-]?0+", s):
        raise ValueError(f"zero denominator: {text!r}")
    if "sqrt" in s:
        m = re.fullmatch(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(-?\d+)", s)
        if not m:
            raise ValueError(f"bad surd literal: {text!r}")
        p, q, d, r = int(m.group(1)), int(m.group(2)), int(m.group(3)), int(m.group(4))
        return Surd.make(p, q, r, d)
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    if "." in s or "e" in s or "E" in s:
        return float(s)
    return Fraction(int(s))
