"""The one-dimensional map, its digits, expansions and convergents.

The piecewise map moves points by x+1 below a, -1/x on [a, b) and x-1
from b up.  Its first-return map to [a, b) generates expansions
x = n0 - 1/(n1 - 1/(n2 - ...)) whose digits come from a generalized
integer part; the convergent recursion p_k = n_k p_{k-1} - p_{k-2}
(and likewise q_k) reconstructs the value.  Here the "ceiling" of t is
always floor(t) + 1, also at integers; this keeps digits of genuine
expansions nonzero and gives rationals a tail of 2's when b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .mobius import IDENTITY, Mobius, NonHyperbolicError, S, T_pow, minus_cf_matrix
from .natext import rho
from .params import Params
from .scalars import INF, ExtReal, Infinity, as_float, cmp_exact, floor_exact, is_exact


def state_key(v: ExtReal):
    """Dict key under which orbit and expansion states repeat: rationals as
    (numerator, denominator), cheaper to hash than a Fraction; surds and INF
    as themselves; floats to 9 digits."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    return round(float(v), 9) if isinstance(v, float) else v


class TerminatedExpansion(ValueError):
    """Digit requested at the point at infinity (expansion has ended)."""


def digit_float(x: float, a: float, b: float, eps: float) -> int:
    """digit_ab on floats.  x is below a (or b) unless it is within eps of
    it or above it, as Params.cmp decides; x - a (or x - b) snaps onto an
    integer within eps before the floor."""
    d, n = x - a, 0
    if abs(d) <= eps or d > 0:
        d, n = x - b, 1
        if not (abs(d) <= eps or d > 0):
            return 0
    r = round(d)
    return n + (r if abs(d - r) <= eps else math.floor(d))


def digit_ab(x: ExtReal, params: Params) -> int:
    """Generalized integer part: floor(x-a) below a, 0 on [a, b),
    floor(x-b)+1 from b up."""
    if isinstance(x, Infinity):
        raise TerminatedExpansion("digit of the point at infinity")
    a, b = params.a, params.b
    if not (params.exact and is_exact(x)):
        return digit_float(as_float(x), as_float(a), as_float(b), params.eps)
    if cmp_exact(x, a) < 0:
        return floor_exact(x - a)
    if cmp_exact(x, b) < 0:
        return 0
    return floor_exact(x - b) + 1


def f_step(x: ExtReal, params: Params) -> ExtReal:
    """One step of the piecewise map; fixes the point at infinity."""
    return rho(x, params).apply(x)


def f_hat_step(x: ExtReal, params: Params) -> tuple[ExtReal, Mobius]:
    """First-return step on [a, b): x -> T^{-digit(-1/x)} S x, 0 -> 0."""
    if isinstance(x, Infinity):
        raise ValueError("first-return map is defined on [a, b)")
    if params.cmp(x, params.a) < 0 or params.cmp(x, params.b) >= 0:
        raise ValueError(f"{x} outside [a, b)")
    if params.eq(x, 0):
        return Fraction(0) if params.exact else 0.0, IDENTITY
    y = S.apply(x)
    n = digit_ab(y, params)
    word = T_pow(-n) @ S
    return word.apply(x), word


@dataclass
class CFExpansion:
    """Digit sequence of an (a, b)-expansion with optional periodic tail."""

    digits: list[int]
    terminated: bool = False
    preperiod: Optional[int] = None
    period: Optional[int] = None
    approximate: bool = False

    @property
    def periodic(self) -> bool:
        return self.period is not None

    def head(self) -> list[int]:
        if not self.periodic:
            return list(self.digits)
        return self.digits[: self.preperiod]

    def tail(self) -> list[int]:
        if not self.periodic:
            return []
        return self.digits[self.preperiod : self.preperiod + self.period]

    def to_json(self):
        if self.periodic:
            return {"preperiod": self.head(), "period": self.tail()}
        return list(self.digits)


def expand(x: ExtReal, params: Params, max_digits: int = 200) -> CFExpansion:
    """Run the digit recursion n_i = digit(x_i), x_{i+1} = -1/(x_i - n_i).

    Rational inputs (with b != 0) hit the point at infinity and terminate;
    exact quadratic states repeat and are reported as (preperiod, period).
    Float states match through :func:`state_key`; float inputs or
    parameters flag the result approximate.
    """
    if max_digits < 1:
        raise ValueError("max_digits >= 1")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"x must be finite, not {x}")
    digits: list[int] = []
    if isinstance(x, Infinity):
        return CFExpansion(digits, terminated=True)
    seen: dict = {}
    approx = not params.exact or isinstance(x, float)
    cur = x
    for i in range(max_digits):
        if isinstance(cur, Infinity):
            return CFExpansion(digits, terminated=True, approximate=approx)
        if i >= 1:
            k = state_key(cur)
            if k in seen:
                j = seen[k]
                return CFExpansion(
                    digits,
                    preperiod=j,
                    period=i - j,
                    approximate=approx,
                )
            seen[k] = i
        n = digit_ab(cur, params)
        digits.append(n)
        t = cur - n
        if isinstance(t, float):
            cur = INF if abs(t) <= params.eps else -1.0 / t
        else:
            cur = INF if t == 0 else -1 / t
    return CFExpansion(digits, approximate=approx)


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int

    @property
    def value(self) -> ExtReal:
        return INF if self.q == 0 else Fraction(self.p, self.q)


def convergents(digits: Sequence[int], k: Optional[int] = None) -> list[Convergent]:
    """Convergents r_0..r_k from p_{-2}=0, p_{-1}=1, q_{-2}=-1, q_{-1}=0."""
    if k is None:
        k = len(digits) - 1
    if k >= len(digits):
        raise ValueError("k exceeds available digits")
    p2, p1 = 0, 1
    q2, q1 = -1, 0
    out = []
    for n in digits[: k + 1]:
        p = n * p1 - p2
        q = n * q1 - q2
        out.append(Convergent(p, q))
        p2, p1 = p1, p
        q2, q1 = q1, q
    return out


def evaluate_finite_minus_cf(digits: Sequence[int]) -> ExtReal:
    """Value of the finite formal expression (n_0, ..., n_k)."""
    return minus_cf_matrix(digits).apply(INF)


def evaluate_minus_cf(preperiod: Sequence[int], period: Sequence[int] = ()) -> ExtReal:
    """Value of (m_0, ..., m_l, overline(period)).

    The periodic tail is the attracting fixed point of the period matrix;
    a parabolic period contributes its unique fixed point (this covers
    the tail of 2's of rational numbers in the b = 0 chart).  Elliptic
    periods are rejected.
    """
    if not period:
        if not preperiod:
            raise ValueError("empty expression")
        return evaluate_finite_minus_cf(preperiod)
    m = minus_cf_matrix(period)
    cls = m.classify()
    if cls == "hyperbolic":
        tail, _ = m.fixed_points()
    elif cls == "parabolic":
        tail = m.parabolic_fixed_point()
    else:
        raise NonHyperbolicError(cls)
    return minus_cf_matrix(preperiod).apply(tail) if preperiod else tail


def bounded_digit_interval(
    m: int, digits: Sequence[int]
) -> tuple[ExtReal, ExtReal, Fraction]:
    """Interval of points whose expansion starts (0, n_1, ..., n_k).

    Endpoints are (0, n_1, ..., n_k - 1) and (0, n_1, ..., n_k); the length
    equals 1/(q_k (q_k - q_{k-1})) for the denominators of the full
    sequence including the leading 0.
    """
    if m < 2:
        raise ValueError("m >= 2")
    if not digits:
        raise ValueError("digits nonempty")
    if any(n not in (m, m + 1) for n in digits):
        raise ValueError(f"digits must lie in {{{m}, {m + 1}}}")
    seq = [0, *digits]
    low = evaluate_finite_minus_cf(seq[:-1] + [seq[-1] - 1])
    high = evaluate_finite_minus_cf(seq)
    qs = [c.q for c in convergents(seq)]
    qk, qk1 = qs[-1], qs[-2]
    length = Fraction(1, qk * (qk - qk1))
    assert high - low == length
    return low, high, length
