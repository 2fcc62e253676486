import math
import random
from fractions import Fraction

import pytest

from abcf.cf import (
    bounded_digit_interval,
    convergents,
    digit_ab,
    digit_float,
    evaluate_finite_minus_cf,
    evaluate_minus_cf,
    expand,
    state_key,
)
from abcf.mobius import IDENTITY, NonHyperbolicError, S, T, T_INV, T_pow
from abcf.natext import rho
from abcf.params import Params
from abcf.scalars import INF, Surd, as_float


H = Params.make("-1/2", "1/2")  # nearest-integer chart
Z = Params.make("-4/5", "2/5")  # Zagier's example
M = Params.make("-1", "0")  # minus (backward) chart


def f_step(x, params):
    """One step of the piecewise map; fixes the point at infinity."""
    return rho(x, params).apply(x)


def digit_float_round(x, a, b, eps):
    """digit_float as first written: the nearest integer r = round(d) when
    d is within eps of it, else floor(d)."""
    d, n = x - a, 0
    if abs(d) <= eps or d > 0:
        d, n = x - b, 1
        if not (abs(d) <= eps or d > 0):
            return 0
    r = round(d)
    return n + (r if abs(d - r) <= eps else math.floor(d))


def f_hat_step(x, params):
    """First-return step on [a, b): x -> T^{-digit(-1/x)} S x, 0 -> 0."""
    if x is INF:
        raise ValueError("first-return map is defined on [a, b)")
    if params.cmp(x, params.a) < 0 or params.cmp(x, params.b) >= 0:
        raise ValueError(f"{x} outside [a, b)")
    if params.eq(x, 0):
        return Fraction(0) if params.exact else 0.0, IDENTITY
    y = S.apply(x)
    n = digit_ab(y, params)
    word = T_pow(-n) @ S
    return word.apply(x), word


def evaluate_expansion(exp):
    """Value of an expansion as produced by expand."""
    if exp.periodic:
        return evaluate_minus_cf(exp.head(), exp.tail())
    return evaluate_finite_minus_cf(exp.digits)


def test_digit_examples():
    assert digit_ab(0.7, Params.make(-0.5, 0.5)) == 1
    assert digit_ab(-2.5, Params.make(-0.5, 0.5)) == -2
    assert digit_ab(Fraction(0), H) == 0
    assert digit_ab(Fraction(0), Z) == 0


def test_digit_paper_ceiling_at_integers():
    # the ceiling convention is floor + 1 even at integers: x = b gets digit 1
    assert digit_ab(H.b, H) == 1
    assert digit_ab(Fraction(0), M) == 1  # 0 >= b = 0


def test_digit_of_a_float_snaps_within_eps():
    # x within eps of a cut lies on it; x - a and x - b within eps of an
    # integer floor to it; the rule is the same under a float pair and an
    # exact one
    cases = [
        (-0.5 - 1e-13, 0),
        (0.5 - 1e-13, 1),
        (2.5 - 1e-13, 3),
        (-2.5 - 1e-13, -2),
        (-0.5 - 1e-9, -1),
        (0.5 - 1e-9, 0),
        (1.5 + 1e-13, 2),
        (-1.5 + 1e-9, -1),
    ]
    for x, n in cases:
        assert digit_ab(x, Params.make(-0.5, 0.5)) == n, x
        assert digit_ab(x, H) == n, x
        assert digit_float(x, -0.5, 0.5, 1e-12) == n, x


def _branch_sign(x, params):
    """-1, 0 or 1 as rho takes T, S or T^-1 at x."""
    return {T: -1, S: 0, T_INV: 1}[rho(x, params)]


def _sign(n):
    return (n > 0) - (n < 0)


@pytest.mark.parametrize("a, b, eps", [
    (-0.7, 0.8, 1e-12),
    (-1.0, 1.0, 1e-12),
    (-as_float(Surd.make(-1, 1, 2, 5)), as_float(Surd.make(-1, 1, 2, 5)), 1e-12),
    (-0.25, 0.75, 2.0**-20),  # x = a +- eps and b +- eps are exact floats
    (-0.7, 0.8, 0.0),
    (-0.25, 0.75, 0.0),
])
def test_digit_float_takes_the_branch_of_rho(a, b, eps):
    # one branch rule: digit_float is below, at or above 0 exactly where rho
    # takes T, S or T^-1, at the cuts, within and past eps of them, and at
    # random points
    params = Params(a, b, eps)
    xs = [c + k * eps for c in (a, b) for k in (0, -2, -1, -0.5, 0.5, 1, 2)]
    rng = random.Random(11)
    xs += [rng.uniform(a - 3, b + 3) for _ in range(2000)]
    for x in xs:
        assert _sign(digit_float(x, a, b, eps)) == _branch_sign(x, params), x


def edge_floats(a, b, eps):
    """Floats at and one ulp around a and b, the integers near them, the
    points eps off each and the half-integer ties; the integral +-2^52,
    2^53 and 2^60, +-1e300, and tiny values."""
    anchors = [c + k for c in (a, b, 0.0) for k in range(-4, 5)]
    xs = [c + off for c in anchors for off in (0.0, -eps, eps, -0.5, 0.5)]
    xs += [math.nextafter(x, t) for x in list(xs) for t in (-math.inf, math.inf)]
    xs += [s * v for s in (-1, 1) for v in (2.0**52, 2.0**53, 2.0**60, 1e300)]
    xs += [s * v for s in (-1, 1) for v in (1e-300, 5e-324, eps)]
    return xs


@pytest.mark.parametrize("eps", [0.0, 1e-12, 0.49])
@pytest.mark.parametrize("a, b", [
    (-0.7, 0.8),
    (-0.25, 0.75),  # x - a just below 0 has bits under 2^-53
    (-1.0, 0.0),
    (0.0, 1.0),
    (-0.5, (5**0.5 - 1) / 2),
    (-1 / 3, 5 / 3),
])
def test_digit_float_is_the_round_form_on_edge_floats(a, b, eps):
    rng = random.Random(f"{a},{b},{eps}")
    xs = edge_floats(a, b, eps) + [rng.uniform(a - 20, b + 20) for _ in range(3000)]
    xs += [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-20, 20) for _ in range(1000)]
    for x in xs:
        assert digit_float(x, a, b, eps) == digit_float_round(x, a, b, eps), x
    for x, exc in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        with pytest.raises(exc):
            digit_float_round(x, a, b, eps)
        with pytest.raises(exc):
            digit_float(x, a, b, eps)


def test_exact_digit_takes_the_branch_of_rho():
    g = Surd.make(-1, 1, 2, 5)
    tiny = Fraction(1, 10**30)
    for params in (H, Z, M, Params.make("-1", "1"), Params(-g, g), Params(-g, 1 - g)):
        a, b = params.a, params.b
        for x in (a, b, a - tiny, a + tiny, b - tiny, b + tiny, a - 1, b + 1, g, -g, g / 3):
            assert _sign(digit_ab(x, params)) == _branch_sign(x, params), (params, x)


def test_f_step_examples():
    assert f_step(Fraction(-1), Z) == 0
    assert f_step(Fraction(0), Z) is INF
    assert f_step(Fraction(2, 5), Z) == Fraction(-3, 5)
    assert f_step(INF, Z) is INF


def test_f_hat_examples():
    v, w = f_hat_step(Fraction(0), Z)
    assert v == 0 and w.is_identity_psl()
    v, w = f_hat_step(Fraction(2, 5), H)
    assert v == Fraction(-1, 2)
    assert w == T_pow(2) @ S  # digit -2: S first, then T twice
    # -1/x = 2 is an integer: the floor+1 ceiling gives digit 3, landing
    # at -1 (inside [a, b)); -1/2 = (0, 3, 2, 2, ...) in the b = 0 chart
    v, _ = f_hat_step(Fraction(-1, 2), Params.make("-1", "0"))
    assert v == -1


def test_f_hat_rejects_outside():
    with pytest.raises(ValueError):
        f_hat_step(Fraction(2), H)


def test_expand_terminating_rational():
    exp = expand(Fraction(2, 5), H)
    assert exp.digits == [0, -2, 2]
    assert exp.terminated and not exp.periodic


def test_expand_b0_tail_of_twos():
    exp = expand(Fraction(0), M)
    assert exp.periodic and exp.tail() == [2]
    assert exp.head() == [1]  # 0 = (1, 2, 2, ...)
    exp2 = expand(Fraction(17, 11), M, max_digits=400)
    assert exp2.periodic and exp2.tail() == [2]


def test_expand_starts_at_a():
    exp = expand(Z.a, Z, max_digits=5)
    assert exp.digits[0] == 0


def test_expand_quadratic_periodic():
    g = Surd.make(1, 1, 2, 5)  # golden ratio, nearest-integer chart
    exp = expand(g, H, max_digits=60)
    assert exp.periodic and not exp.approximate


def test_expand_float_input_is_approximate():
    # float states match to 9 digits whatever the backing of the pair
    g = Surd.make(1, 1, 2, 5)
    exact = expand(g, H, max_digits=60)
    approx = expand(as_float(g), H, max_digits=60)
    assert approx.approximate and approx.periodic
    assert approx.digits[:10] == exact.digits[:10]
    assert state_key(0.1234567891) == state_key(0.12345678912)
    assert state_key(g) is g and state_key(INF) is INF


def test_convergents_basic():
    cs = convergents([2, 2])
    assert [c.value for c in cs] == [Fraction(2), Fraction(3, 2)]
    cs = convergents([2] * 31)
    assert cs[30].value == Fraction(32, 31)  # r_k = (k+2)/(k+1), marching to 1
    cs = convergents([2] * 150)
    assert abs(as_float(cs[149].value) - 1) < 1e-2
    cs = convergents([0, -2, 2])
    assert cs[-1].value == Fraction(2, 5)


def test_convergent_determinant_identity():
    rng = random.Random(23)
    for _ in range(50):
        digits = [rng.choice([-5, -4, -3, -2, 2, 3, 4, 5]) for _ in range(12)]
        cs = convergents(digits)
        for c0, c1 in zip(cs, cs[1:]):
            assert c0.p * c1.q - c1.p * c0.q == 1


def test_evaluate_minus_cf_periodic():
    assert evaluate_minus_cf([0], [-3]) == Surd.make(3, -1, 2, 5)  # (3-sqrt5)/2
    v = evaluate_minus_cf([0, -3], [-4])
    assert v == Surd.make(-1, 1, 2, 3)  # root of 2b^2+2b-1 in (0,1)
    assert 2 * v * v + 2 * v - 1 == 0
    assert abs(as_float(v) - 0.3660) < 1e-4


def test_evaluate_minus_cf_parabolic_tail():
    # 0 = (1, 2, 2, ...): parabolic period evaluates at its fixed point
    assert evaluate_minus_cf([1], [2]) == 0
    assert evaluate_minus_cf([], [2]) == 1
    # truncations (2, ..., 2) evaluate to (k+1)/k, converging to 1
    for k in [1, 5, 30]:
        assert evaluate_finite_minus_cf([2] * k) == Fraction(k + 1, k)


def test_evaluate_minus_cf_elliptic_rejected():
    with pytest.raises(NonHyperbolicError):
        evaluate_minus_cf([0], [1])


def test_round_trip_rationals():
    rng = random.Random(31)
    import numpy as np
    from abcf.params import interior_rational_params

    params_pool = [H, Z, Params.make("-2/3", "3/5"), Params.make("-1", "1")]
    params_pool += interior_rational_params(np.random.default_rng(101), 8)
    for _ in range(200):
        p = rng.choice(params_pool)
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        exp = expand(x, p, max_digits=300)
        assert exp.terminated
        assert evaluate_expansion(exp) == x


def test_round_trip_b0_periodic():
    rng = random.Random(37)
    for _ in range(50):
        x = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
        exp = expand(x, M, max_digits=500)
        assert exp.periodic
        assert evaluate_expansion(exp) == x


def test_forbidden_pairs_never_produced():
    rng = random.Random(41)
    pool = [H, Z, M, Params.make("-2/3", "3/5"), Params.make("-6/5", "1/2")]
    checked = 0
    for _ in range(10_000):
        p = rng.choice(pool)
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        exp = expand(x, p, max_digits=80)
        d = exp.digits
        for i in range(1, len(d) - 1):
            checked += 1
            assert not (d[i] >= 1 and d[i + 1] == 1)
            assert not (d[i] <= -1 and d[i + 1] == -1)
    assert checked > 10_000


def test_float_mode_convergence_rate():
    rng = random.Random(43)
    pf = Params.make(-0.5, 0.5)
    for _ in range(30):
        x = rng.uniform(-3, 3)
        exp = expand(x, pf, max_digits=25)
        cs = convergents(exp.digits)
        # along the admissible subsequence |x_{k+1}| >= 1, |r_k - x| <= 1/|q_k|
        cur = x
        for k, n in enumerate(exp.digits):
            t = cur - n
            if t == 0:
                break
            cur = -1.0 / t
            if k + 1 < len(exp.digits) and abs(cur) >= 1 and cs[k].q != 0:
                assert abs(as_float(cs[k].value) - x) <= 1.0 / abs(cs[k].q) + 1e-12


def test_bounded_digit_interval_values():
    low, high, length = bounded_digit_interval(2, [2])
    assert (low, high, length) == (Fraction(-1), Fraction(-1, 2), Fraction(1, 2))
    low, high, length = bounded_digit_interval(2, [2, 2])
    assert length == Fraction(1, 3)


def test_bounded_digit_union_ratio():
    rng = random.Random(47)
    for m in (2, 3, 4):
        for k in range(1, 21):
            seqs = {tuple(rng.choice([m, m + 1]) for _ in range(k)) for _ in range(30)}
            seqs |= {(m,) * k, (m + 1,) * k}
            for seq in seqs:
                seq = (m,) + seq[1:]
                _, _, parent = bounded_digit_interval(m, list(seq))
                lo_m, _, _ = bounded_digit_interval(m, list(seq) + [m])
                _, hi_m1, _ = bounded_digit_interval(m, list(seq) + [m + 1])
                union = hi_m1 - lo_m
                # tight bound at the child level K = k + 1; all-m
                # sequences attain it with equality when m = 2
                K = k + 1
                assert union <= Fraction(2 * K, 2 * K + 1) * parent
                if m == 2 and seq == (2,) * k:
                    assert union == Fraction(2 * K, 2 * K + 1) * parent


def test_digit_of_infinity_signals_termination():
    from abcf.cf import TerminatedExpansion

    with pytest.raises(TerminatedExpansion):
        digit_ab(INF, H)
    assert expand(INF, H).terminated and expand(INF, H).digits == []


@pytest.mark.parametrize("params, approximate", [(H, False), (Params(-0.5, 0.5), True)])
def test_expand_of_infinity_terminates_in_the_loop(params, approximate):
    # INF ends the expansion at once, with no digit; under a float pair it
    # is approximate, as every other float-pair expansion is
    exp = expand(INF, params)
    assert (exp.digits, exp.terminated, exp.periodic, exp.approximate) == ([], True, False, approximate)


def test_state_key_of_rationals():
    # equal rationals built in different ways share one key; keys of
    # surds, INF and floats are unchanged and meet no rational key
    keys = {
        state_key(Fraction(6, 4)),
        state_key(Fraction(3, 2)),
        state_key(S.apply(Fraction(-2, 3))),
        state_key(T_pow(1).apply(Fraction(1, 2))),
    }
    assert keys == {(3, 2)}
    assert state_key(Fraction(3)) == state_key(3) == (3, 1)
    g = Surd.make(-1, 1, 2, 5)
    assert state_key(g) is g and state_key(INF) is INF
    assert state_key(1.5) == 1.5 and state_key(0.1234567891) == 0.123456789
    assert len({state_key(v) for v in (Fraction(3, 2), 1.5, g, INF)}) == 4
