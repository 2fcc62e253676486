import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcf.mobius import IDENTITY, Mobius, S, T, T_INV, T_pow, minus_cf_matrix
from abcf.scalars import INF, Surd, as_float

GENERATORS = {"T": T, "T'": T_INV, "S": S}
INVERSE_NAME = {"T": "T'", "T'": "T", "S": "S"}


def rand_word(rng, n):
    return tuple(rng.choice(["T", "T'", "S"]) for _ in range(n))


def from_word(tokens):
    """Multiply out a generator word given in application order."""
    m = IDENTITY
    for t in tokens:
        m = GENERATORS[t] @ m
    return m


def test_generators():
    assert T.apply(Fraction(1, 2)) == Fraction(3, 2)
    assert S.apply(Fraction(2)) == Fraction(-1, 2)
    assert S.apply(Fraction(0)) is INF
    assert T.apply(INF) is INF
    assert T_INV.apply(Fraction(0)) == -1


def test_t3s_sends_infinity_to_3():
    m = T_pow(3) @ S
    assert (m.a, m.b, m.c, m.d) == (3, -1, 1, 0)
    assert m.apply(INF) == 3


def test_word_multiplies_out():
    rng = random.Random(3)
    for _ in range(50):
        w = rand_word(rng, rng.randint(0, 12))
        k = rng.randint(0, len(w))
        m = from_word(w)
        assert m == from_word(w[k:]) @ from_word(w[:k])  # w[:k] applies first
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        y = x
        for t in w:
            y = GENERATORS[t].apply(y)
        assert m.apply(x) == y or (m.apply(x) is INF and y is INF)


def test_composition_matches_application():
    rng = random.Random(5)
    for _ in range(200):
        m = from_word(rand_word(rng, rng.randint(1, 8)))
        n = from_word(rand_word(rng, rng.randint(1, 8)))
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        lhs = (m @ n).apply(x)
        rhs = m.apply(n.apply(x))
        assert lhs == rhs or (lhs is INF and rhs is INF)


def test_S_squared_acts_as_identity():
    ss = S @ S
    assert ss.is_identity_psl()
    assert (ss.a, ss.d) == (-1, -1)  # -Id in SL(2,Z), Id in PSL(2,Z)
    for x in [Fraction(2, 7), Fraction(-5), INF]:
        y = ss.apply(x)
        assert y == x or (y is INF and x is INF)


def test_fixed_points_t3s():
    att, rep = (T_pow(3) @ S).fixed_points()
    assert att == Surd.make(3, 1, 2, 5)
    assert rep == Surd.make(3, -1, 2, 5)


def test_fixed_points_t4s():
    att, _ = (T_pow(4) @ S).fixed_points()
    assert att == Surd.make(2, 1, 1, 3)  # 2 + sqrt(3)


def test_fixed_points_per_class():
    # hyperbolic: two (test_fixed_points_t3s); parabolic: one, INF when c = 0;
    # elliptic and +-Id: none
    assert (T_pow(2) @ S).fixed_points() == (1,)
    assert T_pow(3).fixed_points() == (INF,)
    assert (T @ S).fixed_points() == ()  # elliptic, trace 1
    assert IDENTITY.fixed_points() == ()
    assert (S @ S).fixed_points() == ()  # -Id


def test_iteration_converges_to_attracting():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(3, 7)
        m = T_pow(k) @ S @ T_pow(rng.randint(3, 6)) @ S
        att, rep = m.fixed_points()
        x = 0.0
        for _ in range(60):
            x = as_float(m.apply(x))
        assert abs(x - as_float(att)) < 1e-12


def test_inverse_round_trips_words():
    rng = random.Random(13)
    for _ in range(50):
        w = rand_word(rng, rng.randint(1, 10))
        m = from_word(w)
        assert (m @ m.inverse()).is_identity_psl()
        # word inversion is a PSL identity: S^-1 = -S as a matrix
        inv = tuple(INVERSE_NAME[t] for t in reversed(w))
        assert from_word(inv).psl_eq(m.inverse())


def test_minus_cf_matrix_finite_values():
    assert minus_cf_matrix([2, 2]).apply(INF) == Fraction(3, 2)
    assert minus_cf_matrix([0, -2, 2]).apply(INF) == Fraction(2, 5)


def test_composition_float_tolerance():
    rng = random.Random(17)
    eps = 1e-12
    for _ in range(200):
        m = from_word(rand_word(rng, rng.randint(1, 8)))
        n = from_word(rand_word(rng, rng.randint(1, 8)))
        x = rng.uniform(-5, 5)
        lhs = (m @ n).apply(x)
        mid = n.apply(x)
        if mid is INF or isinstance(mid, float) and abs(mid) > 1e6:
            continue
        rhs = m.apply(mid)
        if lhs is INF or rhs is INF:
            continue
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 10 * eps * scale * 1e3  # chained float error


def test_apply_on_rationals_is_the_fraction_formula():
    # the gcd-free action: the value of (a x + b)/(c x + d), in lowest
    # terms with a positive denominator, and INF at the pole
    rng = random.Random(19)
    for _ in range(300):
        m = from_word(rand_word(rng, rng.randint(0, 30)))
        x = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        for v in (x, Fraction(-m.d, m.c) if m.c else x):
            y, den = m.apply(v), m.c * v + m.d
            if den == 0:
                assert y is INF
                continue
            assert type(y) is Fraction and y == (m.a * v + m.b) / den
            assert y.denominator > 0 and math.gcd(y.numerator, y.denominator) == 1
            assert hash(y) == hash(Fraction(y.numerator, y.denominator))
        at_inf = m.apply(INF)
        assert at_inf is INF if m.c == 0 else at_inf == Fraction(m.a, m.c)
        k = rng.randint(-50, 50)  # an int is the rational k/1
        assert m.apply(k) == m.apply(Fraction(k)) and type(m.apply(k)) is type(m.apply(Fraction(k)))


def test_apply_on_surds_is_the_surd_formula():
    # one quotient over sqrt(d) gives the canonical (p, q, r, d) of (a x +
    # b)/(c x + d) in Surd arithmetic; 23058812973 = 1031^2 * 21693 keeps
    # a square factor past the sieve
    rng = random.Random(23)
    for _ in range(400):
        m = from_word(rand_word(rng, rng.randint(0, 30)))
        d = rng.choice([2, 3, 5, 8, 21693, 23058812973])
        q = rng.choice([-1, 1]) * rng.randint(1, 10**3)
        x = Surd.make(rng.randint(-(10**6), 10**6), q, rng.randint(1, 10**6), d)
        y, want = m.apply(x), (m.a * x + m.b) / (m.c * x + m.d)
        assert type(y) is Surd and (y.p, y.q, y.r, y.d) == (want.p, want.q, want.r, want.d)


def test_minus_cf_matrix_is_the_product_of_T_pow_S():
    rng = random.Random(29)
    assert minus_cf_matrix([]) == IDENTITY
    for k in range(1, 40):
        digits = [rng.randint(-6, 6) for _ in range(k)]
        m = IDENTITY
        for n in digits:
            m = m @ (T_pow(n) @ S)
        assert minus_cf_matrix(digits) == m == minus_cf_matrix(tuple(digits))


@st.composite
def hyperbolic_matrices(draw):
    """(t -1; 1 0) of trace |t| > 2, conjugated by a word, so c takes both
    signs; t = 1009**2 + 2 puts 1009**2, past the square sieve, in t**2 - 4."""
    t = draw(st.integers(3, 10**30) | st.sampled_from([1009**2 + 2, 5 * 1009**2 - 2]))
    m = Mobius(draw(st.sampled_from([1, -1])) * t, -1, 1, 0)
    for g in draw(st.lists(st.sampled_from([T, T_INV, S]), max_size=12)):
        m = g @ m @ g.inverse()
    return m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hyperbolic_matrices())
def test_fixed_points_are_the_two_made_roots(m):
    # the second root is the first's conjugate, already canonical: it is
    # what Surd.make gives for the other sign, field by field, and the
    # attracting root |c x + d| > 1 comes first
    disc = m.trace() ** 2 - 4
    roots = [Surd.make(m.a - m.d, s, 2 * m.c, disc) for s in (1, -1)]
    t = m.c * roots[0] + m.d
    if t * t < 1:
        roots.reverse()
    got = m.fixed_points()
    assert [(x.p, x.q, x.r, x.d) for x in got] == [(x.p, x.q, x.r, x.d) for x in roots]


def test_fixed_points_keep_an_unsieved_square():
    # 1009**2 survives the sieve in the radicand; c < 0 flips r's sign
    m = Mobius(0, 1, -1, 1009**2 + 2)
    assert m.c < 0
    att, rep = m.fixed_points()
    assert att.d == rep.d and att.d % 1009**2 == 0
    assert (rep.p, rep.q, rep.r) == (att.p, -att.q, att.r)
    assert rep == Surd.make(m.a - m.d, -1, 2 * m.c, m.trace() ** 2 - 4)
