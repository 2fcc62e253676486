"""Property tests for the exact scalar layer against mpmath at 500 digits.

The surds are drawn in the fields sqrt(d) for small square-free d.  A
second representation of the same field is (p + q*sqrt(d*1009**2))/r:
1009 is past the square-factor sieve, so Surd.make keeps the radicand
d*1009**2 and the value equals (p + 1009*q*sqrt(d))/r.
"""

import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcf.exceptional import exceptional_b, parse_plan
from abcf.scalars import (
    Surd,
    _cf_digits,
    _enclosures,
    cmp_exact,
    floor_exact,
    midpoint_rational,
    simplest_in_interval,
)

mpmath.mp.dps = 500
TOL = mpmath.mpf(10) ** -450
BIG = 1009

small = st.integers(-60, 60)
nonzero = small.filter(bool)
positive = st.integers(1, 60)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 21])
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@st.composite
def surd_pairs(draw):
    """Two surds of one field, the second possibly in the d*1009**2 form."""
    d = draw(radicands)
    x = Surd.make(draw(small), draw(nonzero), draw(positive), d)
    p, q, r = draw(small), draw(nonzero), draw(positive)
    if draw(st.booleans()):
        y = Surd.make(p, q, r, d * BIG * BIG)
        assert y.d == d * BIG * BIG
    else:
        y = Surd.make(p, q, r, d)
    return x, y


def mp(v) -> mpmath.mpf:
    if isinstance(v, Surd):
        return (v.p + v.q * mpmath.sqrt(v.d)) / v.r
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def close(u, v) -> bool:
    return abs(mp(u) - v) <= TOL * (1 + abs(v))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs())
def test_surd_field_operations(pair):
    x, y = pair
    X, Y = mp(x), mp(y)
    assert close(x + y, X + Y) and close(y + x, X + Y)
    assert close(x - y, X - Y) and close(y - x, Y - X)
    assert close(x * y, X * Y) and close(y * x, X * Y)
    assert close(x / y, X / Y) and close(y / x, Y / X)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs(), fractions)
def test_surd_rational_operations(pair, f):
    x = pair[0]
    X, F = mp(x), mp(f)
    assert close(x + f, X + F) and close(f + x, X + F)
    assert close(x - f, X - F) and close(f - x, F - X)
    assert close(x * f, X * F) and close(f * x, X * F)
    assert close(f / x, F / X)
    if f:
        assert close(x / f, X / F)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs(), fractions)
def test_cmp_exact_matches_mpmath(pair, f):
    x, y = pair
    X, Y, F = mp(x), mp(y), mp(f)
    sign = lambda t: (t > 0) - (t < 0)  # noqa: E731
    assert cmp_exact(x, y) == sign(X - Y) == -cmp_exact(y, x)
    assert cmp_exact(x, f) == sign(X - F) == -cmp_exact(f, x)
    assert cmp_exact(x, x) == 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs())
def test_cmp_exact_across_representations(pair):
    x = pair[0]
    # the same value written over sqrt(d*1009**2)
    twin = Surd.make(BIG * x.p, x.q, BIG * x.r, x.d * BIG * BIG)
    assert twin.d != x.d
    assert cmp_exact(x, twin) == 0 and x == twin and hash(x) == hash(twin)
    eps = Fraction(1, 10**30)
    assert cmp_exact(twin + eps, x) == 1 and cmp_exact(x, twin + eps) == -1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs(), fractions)
def test_floor_exact(pair, f):
    for v in (*pair, f):
        assert floor_exact(v) == int(mpmath.floor(mp(v)))


@st.composite
def cancelling_surds(draw):
    """(p + q*sqrt(d))/r with p within 40 of -q*sqrt(d): the value is tiny
    against q/r, so the two terms share most of their digits."""
    d = draw(st.integers(2, 10**6).filter(lambda n: isqrt(n) ** 2 != n))
    q = draw(st.integers(-(2**90), 2**90).filter(bool))
    p = (-1 if q > 0 else 1) * isqrt(q * q * d) + draw(st.integers(-40, 40))
    return Surd.make(p, q, draw(st.integers(1, 2**20)), d)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cancelling_surds())
@example(Surd.make(-75925532063039488, 33954930184159232, 1, 5))
def test_surd_float_is_correctly_rounded(x):
    # mpmath rounds its 500-digit value to the nearest double
    assert float(x) == float(mp(x))
    assert float(-x) == -float(x)


def brute_simplest(a: Fraction, b: Fraction) -> Fraction:
    """Smallest denominator in [a, b]; among those, the one nearest 0."""
    q = 1
    while True:
        lo, hi = -((-a.numerator * q) // a.denominator), (b.numerator * q) // b.denominator
        if lo <= hi:
            return Fraction(min(max(0, lo), hi), q)
        q += 1


@settings(derandomize=True, max_examples=500, deadline=None)
@given(fractions, st.fractions(min_value=0, max_value=3, max_denominator=40))
def test_simplest_in_interval_brute_force(a, w):
    b = a + w
    s = simplest_in_interval(a, b)
    assert a <= s <= b
    assert s.denominator == brute_simplest(a, b).denominator
    assert s == brute_simplest(a, b)


def test_simplest_in_interval_empty():
    with pytest.raises(ValueError):
        simplest_in_interval(Fraction(1), Fraction(0))


def reference_simplest(a: Fraction, b: Fraction) -> Fraction:
    """The full-size digit loop: one Euclid step on the long integers of
    both ends per digit."""
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    h, h1, k, k1 = 1, 0, 0, 1
    while True:
        ca, fb = -(-pa // qa), pb // qb
        n = min(max(0, ca), fb) if ca <= fb else pa // qa
        h, h1, k, k1 = n * h + h1, h, n * k + k1, k
        if ca <= fb:
            return Fraction(h, k)
        pa, qa, pb, qb = qb, pb - n * qb, qa, pa - n * qa


def from_digits(digits: list[int]) -> Fraction:
    x = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        x = d + 1 / x
    return x


@st.composite
def long_intervals(draw):
    """Intervals [a, b] whose ends have 65- to 4000-bit terms: ends that share
    long continued-fraction prefixes, a == b, integer ends, a < 0 < b and
    negative ends."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.integers(65, 4000))
    kind = draw(st.sampled_from(["width", "prefix", "equal", "integer", "straddle", "negative"]))
    a = Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)
    if kind == "width":  # [a, a + 2**-k]
        return a, a + Fraction(1, 1 << rng.randint(1, 2 * bits))
    if kind == "prefix":  # a common prefix, then two tails
        head = [rng.randint(-9, 9)] + [rng.choice([1, 1, 1, 2, 3, 7, 2**70]) for _ in range(bits // 2)]
        x, y = (from_digits(head + [rng.randint(1, 9) for _ in range(rng.randint(1, 60))]) for _ in "xy")
        return min(x, y), max(x, y)
    if kind == "equal":
        return a, a
    if kind == "integer":
        n = Fraction(a.numerator // a.denominator)
        return (n, a) if a >= n else (a, n)
    w = Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) | 1)
    if kind == "straddle":
        return -abs(a) - 1 / w, abs(a) + 1 / w
    return -abs(a) - w, -abs(a)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(long_intervals())
def test_simplest_in_interval_matches_the_full_size_loop(ab):
    a, b = ab
    s = simplest_in_interval(a, b)
    assert a <= s <= b
    assert s == reference_simplest(a, b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(long_intervals())
def test_cf_digits_match_plain_euclid(ab):
    # a common factor g keeps p and q long down to the final digit
    for x, g in zip(ab, (1, 2**200 + 1)):
        p, q = g * x.numerator, g * x.denominator
        digits = []
        while q:
            digits.append(p // q)
            p, q = q, p % q
        assert list(_cf_digits(g * x.numerator, g * x.denominator)) == [
            (d, i == len(digits) - 1) for i, d in enumerate(digits)
        ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs(), fractions)
def test_midpoint_rational_lies_strictly_between(pair, f):
    x, y = pair
    for u, v in ((x, y), (x, f), (f, y)):
        if cmp_exact(u, v) == 0:
            continue
        if cmp_exact(u, v) > 0:
            u, v = v, u
        m = midpoint_rational(u, v)
        assert isinstance(m, Fraction)
        assert cmp_exact(u, m) == -1 and cmp_exact(m, v) == -1
        assert mp(u) < mp(m) < mp(v)


@st.composite
def rational_pairs(draw):
    """Two rationals, ints among them, that the float filter of cmp_exact
    cannot always separate: equal floats (a gap of 2**-80 relative),
    values past the float range, and values that underflow to +-0.0."""
    kind = draw(st.sampled_from(["near", "huge", "tiny", "plain"]))
    k = draw(st.integers(-3, 3))
    if kind == "near":
        x = draw(fractions)
        y = x + Fraction(k, draw(positive) * 2**80)
    elif kind == "huge":
        x = Fraction(draw(st.sampled_from([1, -1])) * 10**400 + draw(small), draw(positive))
        y = draw(st.sampled_from([x + k, Fraction(k)]))
    elif kind == "tiny":
        x = Fraction(draw(small), 10**400)
        y = Fraction(draw(small), 10**400 + draw(st.integers(0, 3)))
    else:
        x, y = draw(fractions), draw(fractions)
    as_int = lambda v: int(v) if v.denominator == 1 and draw(st.booleans()) else v  # noqa: E731
    return as_int(x), as_int(y)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(rational_pairs())
@example((10**400, 10**400 + 1))
@example((Fraction(1, 3), Fraction(1, 3) + Fraction(1, 3 * 2**80)))
@example((Fraction(-1, 10**400), 0))
@example((Fraction(5), 5))
def test_cmp_exact_on_rationals_is_fraction_order(pair):
    x, y = pair
    X, Y = Fraction(x), Fraction(y)
    assert cmp_exact(x, y) == (X > Y) - (X < Y) == -cmp_exact(y, x)


def test_float_filter_edge_cases_take_the_exact_path():
    # equal floats, an overflow and two underflows to -0.0 and 0.0: each is
    # decided exactly, not by the floats
    x = Fraction(1, 3)
    y = x + Fraction(1, 3 * 2**80)
    assert x.numerator / x.denominator == y.numerator / y.denominator
    assert cmp_exact(x, y) == -1 and cmp_exact(y, x) == 1
    with pytest.raises(OverflowError):
        Fraction(10**400 + 1, 7).numerator / 7
    assert cmp_exact(Fraction(10**400 + 1, 7), Fraction(10**400, 7)) == 1
    assert cmp_exact(10**400, Fraction(1, 2)) == 1 and cmp_exact(-(10**400), 0) == -1
    neg, pos = Fraction(-1, 10**400), Fraction(1, 10**401)
    assert neg.numerator / neg.denominator == 0.0 == pos.numerator / pos.denominator
    assert cmp_exact(neg, pos) == -1 and cmp_exact(neg, 0) == -1 and cmp_exact(0, pos) == -1


def test_cmp_exact_on_long_fractions_whose_floats_tie():
    # about 5000-bit fractions: pairs that differ only past bit 5000, pairs
    # that differ between bits 60 and 5000, and equal values held in distinct
    # objects; every pair ties as floats, so the exact path decides
    rng = random.Random(14)
    for _ in range(60):
        x = Fraction(rng.getrandbits(5000) - (1 << 4999), rng.getrandbits(5000) | 1)
        g = rng.getrandbits(100) | 1
        twins = [Fraction(g * x.numerator, g * x.denominator), Fraction(x.numerator, x.denominator)]
        near = [x + Fraction(rng.choice([-1, 1]) * rng.getrandbits(40), 1 << rng.randint(100, 5040)) for _ in range(4)]
        far = [x + Fraction(rng.choice([-1, 1]), x.denominator << 5001)]
        for y in twins + near + far:
            assert y is not x and x.numerator / x.denominator == y.numerator / y.denominator
            assert cmp_exact(x, y) == (x > y) - (x < y) == -cmp_exact(y, x)
        assert all(cmp_exact(x, y) == 0 for y in twins)
        assert all(cmp_exact(x, y) != 0 for y in far)


def midpoint_by_fractions(x, y) -> Fraction:
    """midpoint_rational as it was: the middle-half ends reduced to
    Fractions, then the full-size digit loop."""
    for (xlo, xhi, xd), (ylo, yhi, yd) in _enclosures(x, y, bits=128, top=1 << 22):
        if xhi * yd < ylo * xd:
            u, v, den = xhi * yd, ylo * xd, 4 * xd * yd
            return reference_simplest(Fraction(3 * u + v, den), Fraction(u + 3 * v, den))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surd_pairs(), rational_pairs())
def test_midpoint_rational_is_the_reduced_fraction_midpoint(pair, rationals):
    # the ends, unreduced with 2**bits shifted out, give the same rational
    for u, v in (pair, rationals, (pair[0], rationals[0]), (rationals[1], pair[1])):
        if cmp_exact(u, v) != 0:
            u, v = (u, v) if cmp_exact(u, v) < 0 else (v, u)
            assert midpoint_rational(u, v) == midpoint_by_fractions(u, v)


@pytest.mark.parametrize(
    "plan, width",
    [
        ("m=3;1x2,1x2,1x3,1x2,1x2,1x2,1x3,1x2", 1e-200),
        ("m=3;2x1,2x2,2x1,2x1,2x2,2x1,2x1", 1e-250),
        ("m=3;1x2,1x3,1x2,1x2,1x3,1x2,1x2,1x3", 1e-60),
    ],
)
def test_midpoint_of_the_last_triangles_is_the_reduced_fraction_midpoint(plan, width):
    enc = exceptional_b(*parse_plan(plan), width)
    assert enc.b_mid == midpoint_by_fractions(enc.b_lo, enc.b_hi)
