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

from fractions import Fraction
from math import gcd, isqrt
from typing import Union


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
def _small_primes(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(n + 1) if sieve[i]]


_PRIMES = _small_primes(997)


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


class Surd:
    """A canonical quadratic surd (p + q*sqrt(d))/r with integer p, q, r.

    Invariants: r > 0, gcd(p, q, r) == 1, q != 0, d > 1 not a perfect
    square.  Use :func:`surd` to construct; it collapses rational values
    to ``Fraction``.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int) -> None:
        self.p = p
        self.q = q
        self.r = r
        self.d = d

    # -- construction -------------------------------------------------

    @staticmethod
    def make(p: int, q: int, r: int, d: int) -> "Scalar":
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if d < 0:
            raise ValueError("negative discriminant")
        s, d2 = _extract_square(d) if d > 0 else (0, 1)
        q *= s
        if d == 0 or q == 0:
            return Fraction(p, r)
        if d2 == 1:
            return Fraction(p + q, r)
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        return Surd(p, q, r, d2)

    @staticmethod
    def from_pair(a: Fraction, b: Fraction, d: int) -> "Scalar":
        """Value a + b*sqrt(d) with rational a, b."""
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        return Surd.make(
            a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator),
            den,
            d,
        )

    # -- views ---------------------------------------------------------

    @property
    def rat(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def coef(self) -> Fraction:
        return Fraction(self.q, self.r)

    def conjugate(self) -> "Surd":
        return Surd(self.p, -self.q, self.r, self.d)

    def __repr__(self) -> str:
        return f"({self.p}{self.q:+}*sqrt({self.d}))/{self.r}"

    def _key(self) -> tuple:
        # p/r, q^2 d/r^2 and the sign of q fix the value whatever square
        # factors d keeps
        return self.rat, Fraction(self.q * self.q * self.d, self.r * self.r), self.q > 0

    def __hash__(self) -> int:
        return hash(self._key())

    # -- arithmetic ----------------------------------------------------

    def _parts(self, other: "Number") -> tuple[Fraction, Fraction]:
        """other as a + b*sqrt(self.d), rescaled when sqrt(other.d) is a
        rational multiple of sqrt(self.d)."""
        if isinstance(other, Surd):
            if other.d == self.d:
                return other.rat, other.coef
            m = isqrt(self.d * other.d)
            if m * m != self.d * other.d:
                raise MixedFieldError(f"sqrt({self.d}) vs sqrt({other.d})")
            return other.rat, other.coef * Fraction(m, self.d)
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Number") -> "Scalar":
        parts = self._parts(other)
        if parts is NotImplemented:
            return NotImplemented
        a, b = parts
        return Surd.from_pair(self.rat + a, self.coef + b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other: "Number") -> "Scalar":
        parts = self._parts(other)
        if parts is NotImplemented:
            return NotImplemented
        a, b = parts
        return Surd.from_pair(self.rat - a, self.coef - b, self.d)

    def __rsub__(self, other: "Number") -> "Scalar":
        return (-self) + other

    def __mul__(self, other: "Number") -> "Scalar":
        parts = self._parts(other)
        if parts is NotImplemented:
            return NotImplemented
        a, b = parts
        x, y = self.rat, self.coef
        return Surd.from_pair(x * a + y * b * self.d, x * b + y * a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other: "Number") -> "Scalar":
        parts = self._parts(other)
        if parts is NotImplemented:
            return NotImplemented
        a, b = parts
        norm = a * a - b * b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return (self * Surd.from_pair(a / norm, -b / norm, self.d))

    def __rtruediv__(self, other: "Number") -> "Scalar":
        a = Fraction(other)
        x, y = self.rat, self.coef
        norm = x * x - y * y * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return Surd.from_pair(a * x / norm, -a * y / norm, self.d)

    # -- order ---------------------------------------------------------

    def _sign(self) -> int:
        """Exact sign of the value; q != 0 so the value is irrational."""
        a, b = self.rat, self.coef
        if a == 0:
            return 1 if b > 0 else -1
        if b == 0:  # pragma: no cover - excluded by canonical form
            return 1 if a > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs, rhs = a * a, b * b * self.d
        if b > 0:
            return 1 if rhs > lhs else -1
        return 1 if lhs > rhs else -1

    def _cmp(self, other: "Number") -> int:
        diff = self - other
        if isinstance(diff, Fraction):  # pragma: no cover - impossible same-d
            return (diff > 0) - (diff < 0)
        return diff._sign()

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

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure of the value, width <= 2**(1-bits)."""
        lo, hi = sqrt_bounds(self.d, bits)
        b = self.coef
        term = (b * lo, b * hi) if b > 0 else (b * hi, b * lo)
        a = self.rat
        return a + term[0], a + term[1]

    def __float__(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)


Scalar = Union[Fraction, Surd, float]
ExtReal = Union[Fraction, Surd, float, Infinity]
Bound = Union[Fraction, Surd, float, _Sentinel]

Number = Union[int, Fraction, Surd]


def sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= 2**-bits."""
    n = isqrt(d << (2 * bits))
    return Fraction(n, 1 << bits), Fraction(n + 1, 1 << bits)


def bounds(x: Scalar, bits: int = 64) -> tuple[Fraction, Fraction]:
    if isinstance(x, Surd):
        return x.bounds(bits)
    if isinstance(x, float):
        f = Fraction(x)
        return f, f
    f = Fraction(x)
    return f, f


def as_float(x: ExtReal | Bound) -> float:
    """Float view of a scalar or bound; INF and POS_INF give inf, NEG_INF -inf."""
    if x is INF:
        return float("inf")
    return float(x)


def is_exact(x: object) -> bool:
    return isinstance(x, (int, Fraction, Surd))


def cmp_exact(x: Number, y: Number) -> int:
    """Exact three-way comparison of rationals/surds, any fields."""
    if isinstance(x, Surd) and isinstance(y, Surd) and x.d != y.d:
        if x == y:
            return 0
        bits = 64
        while bits <= (1 << 20):
            xlo, xhi = x.bounds(bits)
            ylo, yhi = y.bounds(bits)
            if xhi < ylo:
                return -1
            if yhi < xlo:
                return 1
            bits *= 2
        raise PrecisionError(f"cannot separate {x!r} and {y!r}")
    if isinstance(x, Surd):
        return x._cmp(y)
    if isinstance(y, Surd):
        return -y._cmp(x)
    fx, fy = Fraction(x), Fraction(y)
    return (fx > fy) - (fx < fy)


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


def floor_exact(x: Scalar) -> int:
    """Integer floor, exact for rationals and surds."""
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, Surd):
        bits = 64
        while True:
            lo, hi = x.bounds(bits)
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi:
                return flo
            bits *= 2
            if bits > (1 << 20):  # pragma: no cover
                raise PrecisionError(f"floor of {x!r} undecided")
    raise TypeError(f"floor_exact expects an exact scalar, got {type(x)}")


def simplest_in_interval(a: Fraction, b: Fraction) -> Fraction:
    """The rational with the smallest denominator in the closed [a, b]."""
    if b < a:
        raise ValueError("empty interval")
    digits: list[int] = []
    while True:
        ca = -((-a.numerator) // a.denominator)  # ceil
        fb = b.numerator // b.denominator  # floor
        if ca <= fb:
            digits.append(min(max(0, ca), fb))
            break
        fa = a.numerator // a.denominator
        digits.append(fa)
        a, b = 1 / (b - fa), 1 / (a - fa)
    val = Fraction(digits[-1])
    for n in reversed(digits[:-1]):
        val = n + 1 / val
    return val


def midpoint_rational(x: Scalar, y: Scalar) -> Fraction:
    """A small-height rational strictly between x < y, valid across fields.

    Refines certified enclosures until they separate, then returns the
    simplest rational in the gap (small representations keep later orbit
    arithmetic on the result cheap).
    """
    bits = 128
    while bits <= (1 << 22):
        xlo, xhi = bounds(x, bits)
        ylo, yhi = bounds(y, bits)
        if yhi < xlo:
            raise ValueError("midpoint_rational expects x < y")
        if xhi < ylo:
            # shrink to the middle half so exact endpoints stay outside
            gap = ylo - xhi
            return simplest_in_interval(xhi + gap / 4, ylo - gap / 4)
        bits *= 2
    raise PrecisionError(f"cannot separate {x!r} and {y!r}")


def format_scalar(x: ExtReal) -> str:
    if x is INF:
        return "inf"
    if isinstance(x, Surd):
        return f"({x.p}{x.q:+}*sqrt({x.d}))/{x.r}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", integers, decimals (-> float) and surd literals.

    The surd literal form mirrors :func:`format_scalar`:
    ``(p+q*sqrt(d))/r``.
    """
    s = text.strip().replace(" ", "")
    if "sqrt" in s:
        import re

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
