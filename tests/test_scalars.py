import random
from fractions import Fraction

import pytest

from abcf.cf import evaluate_minus_cf
from abcf.scalars import (
    INF,
    MixedFieldError,
    NEG_INF,
    POS_INF,
    Surd,
    as_float,
    bounds,
    cmp_bound,
    cmp_exact,
    floor_exact,
    format_scalar,
    midpoint_rational,
    parse_scalar,
)


def test_surd_canonical_form():
    s = Surd.make(2, 4, 6, 5)
    assert (s.p, s.q, s.r, s.d) == (1, 2, 3, 5)
    # square factors move out of the radicand
    s = Surd.make(0, 1, 1, 8)
    assert (s.q, s.d) == (2, 2)
    # q = 0 and perfect squares collapse to rationals
    assert Surd.make(3, 0, 2, 5) == Fraction(3, 2)
    assert Surd.make(1, 1, 2, 9) == Fraction(2)


def test_surd_arithmetic_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 7, 13])
        x = Surd.make(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), d)
        y = Surd.make(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), d)
        assert (x + y) - y == x
        assert (x * y) / y == x


def test_surd_golden_identity():
    g = Surd.make(1, 1, 2, 5)  # (1+sqrt5)/2
    assert g * g == g + 1
    assert 1 / g == g - 1


def test_mixed_fields_error():
    a = Surd.make(0, 1, 1, 2)
    b = Surd.make(0, 1, 1, 3)
    with pytest.raises(MixedFieldError):
        a + b


def test_surd_equality_is_independent_of_representation():
    # the doubled period has trace 1031, past the square-factor sieve, so
    # the same value comes out in the field sqrt(23058812973) = 1031*sqrt(21693)
    x = evaluate_minus_cf([], [2, 20, 27])
    y = evaluate_minus_cf([], [2, 20, 27] * 2)
    assert (x.d, y.d) == (21693, 23058812973)
    assert cmp_exact(x, y) == 0
    assert x == y and hash(x) == hash(y)
    assert x - y == 0 and y - x == 0
    assert x + y == 2 * x
    assert cmp_exact(x + 1, y) == 1


def test_comparisons_exact():
    g = Surd.make(1, 1, 2, 5)
    assert Fraction(8, 5) < g < Fraction(13, 8)
    assert g > 1 and g < 2
    s2 = Surd.make(0, 1, 1, 2)
    s3 = Surd.make(0, 1, 1, 3)
    assert cmp_exact(s2, s3) < 0  # cross-field certified comparison
    assert cmp_exact(s2, Surd.make(0, 1, 1, 2)) == 0
    # sqrt8/2 equals sqrt2 across representations
    assert cmp_exact(Surd.make(0, 1, 2, 8), s2) == 0


def test_floor_and_bounds():
    g = Surd.make(1, 1, 2, 5)
    assert floor_exact(g) == 1
    assert floor_exact(-g) == -2
    assert floor_exact(Fraction(-7, 2)) == -4
    lo, hi = bounds(g, 80)
    assert lo < g < hi
    assert hi - lo <= Fraction(1, 2**79)
    assert abs(as_float(g) - 1.618033988749895) < 1e-15


def test_midpoint_rational_interior():
    g = Surd.make(1, 1, 2, 5)
    m = midpoint_rational(Fraction(1), g)
    assert Fraction(1) < m < g


def test_bound_sentinels():
    g = Surd.make(1, 1, 2, 5)
    assert cmp_bound(NEG_INF, g) < 0 < cmp_bound(POS_INF, g)
    assert cmp_bound(NEG_INF, NEG_INF) == 0


def test_format_parse_round_trip():
    for text in ["-4/5", "3", "(1+1*sqrt(5))/2", "(-3-2*sqrt(7))/4"]:
        v = parse_scalar(text)
        assert parse_scalar(format_scalar(v)) == v
    assert isinstance(parse_scalar("0.25"), float)


def test_infinity_is_projective():
    assert INF == INF
    assert -INF is INF
    assert as_float(INF) == float("inf")
