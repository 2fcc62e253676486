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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .mobius import IDENTITY, NonHyperbolicError, S, T, minus_cf_matrix
from .natext import rho
from .params import Params
from .scalars import INF, ExtReal, Infinity, as_float, floor_exact, is_exact


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
    integer within eps before the floor.

    As 0 <= eps < 1/2, the snap only moves the floor of d = x - a (or
    x - b) where d lies within eps below c = ceil(d): the digit is c when
    c - d <= eps, and c - 1 otherwise.  c - d is exact in floats (Sterbenz),
    except where c = 1 and d < 1/2: there it rounds, but stays above 1/2 >
    eps.  An integral d, every |d| >= 2^52 among them, is its own ceiling.
    With m = floor(d) instead, d - m rounds for d just below 0, and m + 1
    rounds back onto d from 2^53 up.  NaN raises ValueError and an
    infinity OverflowError, as round(d) did."""
    d, n = x - a, 0
    if d >= -eps:
        d, n = x - b, 1
        if d < -eps:
            return 0
    c = math.ceil(d)
    return n + c - (c - d > eps)


def digit_ab(x: ExtReal, params: Params) -> int:
    """Generalized integer part: floor(x-a) below a, 0 on [a, b),
    floor(x-b)+1 from b up.  Exact x takes rho's branch (T, S or T^-1);
    any other x takes digit_float's, which cuts where rho does on floats."""
    if isinstance(x, Infinity):
        raise TerminatedExpansion("digit of the point at infinity")
    if not (params.exact and is_exact(x)):
        return digit_float(as_float(x), as_float(params.a), as_float(params.b), params.eps)
    branch = rho(x, params)
    if branch is S:
        return 0
    return floor_exact(x - params.a) if branch is T else floor_exact(x - params.b) + 1


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
    parameters flag the result approximate.  A float state that is not
    finite (x itself, or -1/t overflowing) raises ValueError.
    """
    if max_digits < 1:
        raise ValueError("max_digits >= 1")
    digits: list[int] = []
    if isinstance(x, Infinity):
        return CFExpansion(digits, terminated=True)
    seen: dict = {}
    approx = not params.exact or isinstance(x, float)
    cur = x
    for i in range(max_digits):
        if isinstance(cur, Infinity):
            return CFExpansion(digits, terminated=True, approximate=approx)
        if isinstance(cur, float) and not math.isfinite(cur):
            raise ValueError(f"float state x_{i} = {cur} is not finite")
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
    """Convergents r_0..r_k: (p_i, q_i) is the first column of the prefix
    product minus_cf_matrix(digits[: i + 1]), which maps INF to r_i."""
    if k is None:
        k = len(digits) - 1
    if k >= len(digits):
        raise ValueError("k exceeds available digits")
    prods = itertools.accumulate(
        digits[: k + 1], lambda m, n: m @ minus_cf_matrix((n,)), initial=IDENTITY
    )
    return [Convergent(m.a, m.c) for m in itertools.islice(prods, 1, None)]


def evaluate_finite_minus_cf(digits: Sequence[int]) -> ExtReal:
    """Value of the finite formal expression (n_0, ..., n_k)."""
    return minus_cf_matrix(digits).apply(INF)


def evaluate_minus_cf(preperiod: Sequence[int], period: Sequence[int] = ()) -> ExtReal:
    """Value of (m_0, ..., m_l, overline(period)).

    The periodic tail is the period matrix's first fixed point: the
    attracting one, or a parabolic period's only one (this covers the
    tail of 2's of rational numbers in the b = 0 chart).  A period with
    none (elliptic, or +-Id) raises NonHyperbolicError.
    """
    if not period:
        if not preperiod:
            raise ValueError("empty expression")
        return evaluate_finite_minus_cf(preperiod)
    m = minus_cf_matrix(period)
    fixed = m.fixed_points()
    if not fixed:
        raise NonHyperbolicError(m.classify())
    tail = fixed[0]
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
