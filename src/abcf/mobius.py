"""SL(2,Z) Mobius transformations acting on the projective real line.

A transformation is a bare integer matrix of determinant one.
Transformations are compared in PSL(2,Z): a matrix acts as the identity
on the line iff it is +-Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .scalars import INF, ExtReal, Infinity, Scalar, Surd


class NonHyperbolicError(ValueError):
    """Fixed points requested for a matrix that is not hyperbolic."""

    def __init__(self, classification: str):
        super().__init__(f"matrix is {classification}, not hyperbolic")
        self.classification = classification


def _coprime(num: int, den: int) -> Fraction:
    """num/den for coprime integers, den != 0, without Fraction's gcd."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = (num, den) if den > 0 else (-num, -den)
    return f


@dataclass(frozen=True)
class Mobius:
    """Integer matrix (a b; c d), det = 1, acting by x -> (a x + b)/(c x + d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant != 1: {self}")

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "Mobius") -> "Mobius":
        """Matrix product; (M @ N)(x) == M(N(x))."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def is_identity_psl(self) -> bool:
        m = (self.a, self.b, self.c, self.d)
        return m == (1, 0, 0, 1) or m == (-1, 0, 0, -1)

    def psl_eq(self, other: "Mobius") -> bool:
        return (self.inverse() @ other).is_identity_psl()

    def classify(self) -> str:
        if self.is_identity_psl():
            return "identity"
        t = abs(self.trace())
        if t > 2:
            return "hyperbolic"
        if t == 2:
            return "parabolic"
        return "elliptic"

    # -- action ---------------------------------------------------------

    def apply(self, x: ExtReal) -> ExtReal:
        """(a p + b q)/(c p + d q) for x = p/q, INF = 1/0, other scalars x/1.
        For p, q coprime it needs no gcd: a common divisor of a p + b q and
        c p + d q divides (ad - bc) p = p and (ad - bc) q = q."""
        if isinstance(x, Infinity):
            p, q = 1, 0
        elif isinstance(x, Fraction):
            p, q = x.numerator, x.denominator
        else:
            p, q = x, 1
        num, den = self.a * p + self.b * q, self.c * p + self.d * q
        if den == 0:
            return INF
        return _coprime(num, den) if isinstance(num, int) else num / den

    def fixed_points(self) -> tuple[ExtReal, ExtReal]:
        """(attracting, repelling) fixed points of a hyperbolic matrix.

        Roots of c x^2 + (d - a) x - b = 0; the attracting one satisfies
        |c x + d| > 1 (the derivative 1/(c x + d)^2 is < 1 there).
        """
        cls = self.classify()
        if cls != "hyperbolic":
            raise NonHyperbolicError(cls)
        a, b, c, d = self.a, self.b, self.c, self.d
        if c == 0:  # pragma: no cover - hyperbolic implies c != 0 in SL(2,Z)
            raise NonHyperbolicError("affine")
        disc = self.trace() ** 2 - 4
        r1 = Surd.make(a - d, 1, 2 * c, disc)
        r2 = Surd.make(a - d, -1, 2 * c, disc)

        def attracting(x: Scalar) -> bool:
            t = c * x + d
            return t * t > 1

        if attracting(r1):
            return r1, r2
        return r2, r1

    def parabolic_fixed_point(self) -> ExtReal:
        if self.classify() != "parabolic":
            raise NonHyperbolicError(self.classify())
        if self.c == 0:
            return INF
        return Fraction(self.a - self.d, 2 * self.c)


#: Generators: T(x) = x + 1, S(x) = -1/x, T'(x) = x - 1.
IDENTITY = Mobius(1, 0, 0, 1)
T = Mobius(1, 1, 0, 1)
S = Mobius(0, -1, 1, 0)
T_INV = Mobius(1, -1, 0, 1)


def T_pow(n: int) -> Mobius:
    return Mobius(1, n, 0, 1)


def minus_cf_matrix(digits: list[int] | tuple[int, ...]) -> Mobius:
    """Matrix of the formal minus continued fraction (n_0, ..., n_k).

    (n_0, ..., n_k, x) = T^{n_0} S T^{n_1} S ... T^{n_k} S (x); the value
    of the finite expression itself is the matrix applied to INF.  Each
    digit multiplies by T^n S = (n -1; 1 0): the convergent recursion.
    """
    a, b, c, d = 1, 0, 0, 1
    for n in digits:
        a, b, c, d = n * a + b, -a, n * c + d, -c
    return Mobius(a, b, c, d)
