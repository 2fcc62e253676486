"""Validated parameter pairs (a, b) and the comparison conventions.

The admissible set is P = {a <= 0 <= b, b - a >= 1, -a*b <= 1}.  A pair
fixes one scalar backing for the whole computation: both entries exact
(rationals/surds) or both floats.  Exact pairs compare exactly; float
pairs compare through the pair's tolerance ``eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .scalars import (
    ExtReal,
    Infinity,
    MixedFieldError,
    Scalar,
    Surd,
    as_float,
    cmp_exact,
    is_exact,
    parse_scalar,
)


class ParamError(ValueError):
    """Parameter pair outside the admissible set P."""


#: Named surd presets accepted by the CLI and the factory.
PRESETS: dict[str, Scalar] = {
    "golden": Surd.make(-1, 1, 2, 5),  # (sqrt(5) - 1)/2
    "-golden": Surd.make(1, -1, 2, 5),
}


@dataclass(frozen=True)
class Params:
    a: Scalar
    b: Scalar
    eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ParamError(f"eps must be finite and >= 0, got {self.eps}")
        a, b = self.a, self.b
        if isinstance(a, float) != isinstance(b, float):
            raise ParamError("a and b must share one scalar backing")
        if isinstance(a, float) and not (math.isfinite(a) and math.isfinite(b)):
            raise ParamError(f"a and b must be finite, got a={a}, b={b}")
        try:
            width, product = b - a, a * b
        except MixedFieldError as exc:
            raise ParamError(f"a and b lie in different quadratic fields: {exc}") from None
        checks = [
            (self.cmp_num(a, 0) <= 0, "a <= 0"),
            (self.cmp_num(b, 0) >= 0, "0 <= b"),
            (self.cmp_num(width, 1) >= 0, "b - a >= 1"),
            (self.cmp_num(-product, 1) <= 0, "-a*b <= 1"),
        ]
        for ok, name in checks:
            if not ok:
                raise ParamError(f"violated: {name} (a={a}, b={b})")

    # -- factory ---------------------------------------------------------

    @staticmethod
    def make(a, b, eps: float = 1e-12) -> "Params":
        def conv(v):
            if isinstance(v, str):
                if v in PRESETS:
                    return PRESETS[v]
                return parse_scalar(v)
            if isinstance(v, int):
                return Fraction(v)
            return v

        return Params(conv(a), conv(b), eps)

    # -- mode and comparisons ---------------------------------------------

    @property
    def exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b)

    def cmp_num(self, x: Scalar, y) -> int:
        """Three-way compare, eps-snapped in float mode."""
        if isinstance(x, float) or isinstance(y, float):
            fx, fy = as_float(x), as_float(y)
            if abs(fx - fy) <= self.eps:
                return 0
            return 1 if fx > fy else -1
        return cmp_exact(x, y)

    def cmp(self, x: ExtReal, y: ExtReal) -> int:
        if isinstance(x, Infinity) or isinstance(y, Infinity):
            raise ValueError("cannot order the unsigned point at infinity")
        return self.cmp_num(x, y)

    def eq(self, x: ExtReal, y: ExtReal) -> bool:
        if isinstance(x, Infinity) or isinstance(y, Infinity):
            return x is y
        return self.cmp_num(x, y) == 0

    # -- structure ---------------------------------------------------------

    @property
    def degenerate(self) -> bool:
        """One of the three cases handled by explicit regions:
        a = 0 (then b >= 1), b = 0 (then a <= -1), or (a, b) = (-1, 1)."""
        return self.is_a0 or self.is_b0 or self.is_m11

    @property
    def is_a0(self) -> bool:
        return self.cmp_num(self.a, 0) == 0

    @property
    def is_b0(self) -> bool:
        return self.cmp_num(self.b, 0) == 0

    @property
    def is_m11(self) -> bool:
        return self.cmp_num(self.a, -1) == 0 and self.cmp_num(self.b, 1) == 0

    def mirrored(self) -> "Params":
        """The symmetric pair (a, b) -> (-b, -a)."""
        return Params(-self.b, -self.a, self.eps)

    def to_json(self) -> dict:
        from .scalars import format_scalar

        return {
            "a": format_scalar(self.a),
            "b": format_scalar(self.b),
            "a_float": as_float(self.a),
            "b_float": as_float(self.b),
            "mode": "exact" if self.exact else "float",
            "eps": self.eps,
        }


ParamsLike = Union[Params, tuple]


def interior_rational_params(rng, n: int, max_den: int = 12) -> list[Params]:
    """Deterministically sample rational pairs in the interior of P.

    Used by verification suites; the pairs avoid the boundary b - a = 1,
    -a*b = 1, and the degenerate edges a = 0, b = 0.
    """
    out: list[Params] = []
    while len(out) < n:
        da = int(rng.integers(3, max_den + 1))
        na = int(rng.integers(1, da))
        a = Fraction(-na, da)  # a in (-1, 0)
        lo = a + 1
        hi = min(Fraction(1), -1 / a)
        db = int(rng.integers(3, max_den + 1))
        nb = int(rng.integers(1, db))
        b = lo + (hi - lo) * Fraction(nb, db + 1)
        if b <= lo or b >= hi or b <= 0:
            continue
        try:
            out.append(Params(a, b))
        except ParamError:  # pragma: no cover
            continue
    return out
