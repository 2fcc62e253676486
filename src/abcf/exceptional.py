"""Recursive construction of the exceptional parameters on b = a + 1.

Parameter triangles are indexed by digit sequences over {m, m+1}: each
prefix ending in m contributes a lower constraint on b (its base, where
the word maps b to b/(b+1)) and each prefix ending in m+1 an upper one
(its vertex, a periodic point of the word), and the triangle is the
surviving interval between the binding constraints.  Admissible
sequences are generated by the two-block substitution
A -> A..AB / B -> A..AB (first kind) or A -> AB..B / B -> AB..B (second
kind); every such sequence keeps all its triangles nonempty and nested,
and aperiodic substitution plans squeeze the bases to a single parameter
pair that violates the finiteness condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

from .cf import evaluate_minus_cf
from .mobius import minus_cf_matrix
from .scalars import (
    Scalar,
    as_float,
    cmp_exact,
    enclosure,
    midpoint_rational,
)

Case = Literal["case1", "case2"]


def vertex_value(seq: Sequence[int]) -> Scalar:
    """b with f^seq(b) = b: the value (0, overline(-seq))."""
    return evaluate_minus_cf([0], [-n for n in seq])


def base_value(seq: Sequence[int], m: int) -> Scalar:
    """b with f^seq(b) = b/(b+1): the value (0, -n1, overline(-n2.., -(m+1)))."""
    return evaluate_minus_cf([0, -seq[0]], [-n for n in seq[1:]] + [-(m + 1)])


@dataclass(frozen=True)
class TriangleRegion:
    b_lo: Scalar  # horizontal base height
    b_hi: Scalar  # vertex height
    empty: bool

    @property
    def width(self) -> float:
        """Certified upper bound on b_hi - b_lo (0.0 once below float range)."""
        if self.empty:
            return 0.0
        lo, _, lo_den = enclosure(self.b_lo, 96)
        _, hi, hi_den = enclosure(self.b_hi, 96)
        return (hi * lo_den - lo * hi_den) / (hi_den * lo_den)


def triangle_region(m: int, seq: Sequence[int]) -> TriangleRegion:
    """The cumulative parameter triangle of a digit sequence.

    Every prefix ending in an m digit contributes a lower constraint on b
    (the base of its one-step region) and every prefix ending in m+1 an
    upper constraint (its vertex); the cumulative triangle's b-interval
    is [max of the bases, min of the vertices], empty when they cross.
    """
    if m < 3:
        raise ValueError("m >= 3")
    seq = tuple(seq)
    if not seq or seq[0] != m:
        raise ValueError(f"sequence must start with m = {m}")
    if any(n not in (m, m + 1) for n in seq):
        raise ValueError(f"digits must lie in {{{m}, {m + 1}}}")
    lo = None
    hi = None
    for i, n in enumerate(seq):
        if n == m:
            cand = base_value(seq[: i + 1], m)
            if lo is None or cmp_exact(cand, lo) > 0:
                lo = cand
        else:
            cand = vertex_value(seq[: i + 1])
            if hi is None or cmp_exact(cand, hi) < 0:
                hi = cand
    if hi is None:
        hi = vertex_value((m,))
    return TriangleRegion(lo, hi, empty=cmp_exact(lo, hi) >= 0)


@dataclass
class SubstitutionScheme:
    """State of the block substitution at one generation: the digit blocks
    A and B, and base, the blocks (A, B) of its triangle's base.  That is
    (A, B) itself at generation 0 and after a first-kind step; a
    second-kind step keeps the blocks it started from."""

    m: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    base: tuple[tuple[int, ...], tuple[int, ...]]
    sigma: Optional[tuple[int, ...]] = None
    case_tag: Optional[Case] = None  # how the current A was built
    gen: int = 0

    @staticmethod
    def initial(m: int) -> "SubstitutionScheme":
        if m < 3:
            raise ValueError("m >= 3")
        A, B = (m,), (m + 1,)
        return SubstitutionScheme(m, A, B, (A, B))

    def triangle(self) -> TriangleRegion:
        """Exact bounds of the generation's triangle in closed form:
        vertex (0, overline(A)), base (0, A, overline(B)) with the base
        blocks."""
        return _triangle_and_base(self)[0]


def _triangle_and_base(scheme: SubstitutionScheme) -> tuple[TriangleRegion, Scalar]:
    """The generation's triangle and the length of its lower base, whose
    ends (0, A, overline(B)) and (0, overline(B)) are read off one tail:
    the base block B's attracting fixed point."""
    A, B = scheme.base
    tail = evaluate_minus_cf([], B)
    left, right = minus_cf_matrix([0, *A]).apply(tail), minus_cf_matrix([0]).apply(tail)
    lo, hi = -left, vertex_value(scheme.A)
    return TriangleRegion(lo, hi, empty=cmp_exact(lo, hi) >= 0), right - left


def substitution_step(
    scheme: SubstitutionScheme, next_case: Case, multiplicity: int
) -> SubstitutionScheme:
    """Generation n -> n+1 blocks and the new starting block sigma."""
    if next_case == "case1" and multiplicity < 2:
        raise ValueError("first-kind steps need multiplicity >= 2")
    if next_case == "case2" and multiplicity < 1:
        raise ValueError("second-kind steps need multiplicity >= 1")
    A, B, m = scheme.A, scheme.B, scheme.m
    if next_case == "case1":
        newA = A * multiplicity + B
        newB = A * (multiplicity - 1) + B
    else:
        newA = A + B * multiplicity
        newB = A + B * (multiplicity + 1)

    if scheme.gen == 0:
        sigma = (m,) * multiplicity if next_case == "case1" else (m,)
    elif scheme.case_tag == "case1":
        sigma = A * (multiplicity - 1) + scheme.sigma if next_case == "case1" else scheme.sigma
    else:
        sigma = A * multiplicity + scheme.sigma if next_case == "case1" else A + scheme.sigma

    return SubstitutionScheme(
        m=m,
        A=newA,
        B=newB,
        base=(newA, newB) if next_case == "case1" else (A, B),
        sigma=sigma,
        case_tag=next_case,
        gen=scheme.gen + 1,
    )


def run_plan(m: int, plan: Sequence[tuple[Case, int]], depth: Optional[int] = None) -> list[SubstitutionScheme]:
    """Schemes of generations 0..depth (inclusive) along a plan."""
    if depth is None:
        depth = len(plan)
    if depth > len(plan):
        raise ValueError("plan exhausted")
    out = [SubstitutionScheme.initial(m)]
    for case, mult in plan[:depth]:
        out.append(substitution_step(out[-1], case, mult))
    return out


def base_length(scheme: SubstitutionScheme) -> Scalar:
    """Length of the lower base of the generation's triangle, from
    scheme.base."""
    return _triangle_and_base(scheme)[1]


@dataclass
class Enclosure:
    m: int
    b_lo: Scalar
    b_hi: Scalar
    b_mid: Fraction
    width: float
    base_len: float
    digits_prefix: tuple[int, ...]
    generations: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "b_lo": as_float(self.b_lo),
            "b_hi": as_float(self.b_hi),
            "b": str(self.b_mid),
            "b_float": float(self.b_mid),
            "width": self.width,
            "base_length": self.base_len,
            "digits_prefix": list(self.digits_prefix[:64]),
            "generations": self.generations,
        }


def exceptional_b(
    m: int,
    plan: Sequence[tuple[Case, int]],
    target_width: float,
) -> Enclosure:
    """Shrink the triangle bases below target_width along a plan.

    Returns the midpoint of the final enclosure as a rational b; the pair
    (b - 1, b) then shadows the aperiodic digit pattern and fails the
    finiteness check at caps shorter than the shadowing length.
    """
    scheme = SubstitutionScheme.initial(m)
    for case, mult in plan:
        scheme = substitution_step(scheme, case, mult)
        tri, L = _triangle_and_base(scheme)
        if tri.empty:
            raise AssertionError(f"plan produced an empty triangle at gen {scheme.gen}")
        _, hi, den = enclosure(L, 96)
        L_f = hi / den
        if L_f < target_width:
            mid = midpoint_rational(tri.b_lo, tri.b_hi)
            return Enclosure(
                m,
                tri.b_lo,
                tri.b_hi,
                mid,
                tri.width,
                L_f,
                scheme.A,
                scheme.gen,
            )
    raise ValueError(f"target width {target_width} not reached within the plan")


def parse_plan(text: str) -> tuple[int, list[tuple[Case, int]]]:
    """Parse "m=3;1x2,1x2,2x1" into (m, [(case1,2),(case1,2),(case2,1)])."""
    head, _, rest = text.partition(";")
    if not head.startswith("m="):
        raise ValueError(f"plan must start with m=<int>: {text!r}")
    m = int(head[2:])
    plan: list[tuple[Case, int]] = []
    if rest:
        for item in rest.split(","):
            kind, _, mult = item.partition("x")
            if kind not in ("1", "2"):
                raise ValueError(f"bad case tag in {item!r}")
            plan.append(("case1" if kind == "1" else "case2", int(mult)))
    return m, plan
