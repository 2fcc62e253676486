from fractions import Fraction

from abcf.attractor import ConstructionError, build_attractor
from abcf.cycles import detect_cycle, truncated_orbits
from abcf.exceptional import exceptional_b
from abcf.mobius import IDENTITY, S, T, T_INV
from abcf.params import Params, interior_rational_params
from abcf.scalars import Surd, as_float

import numpy as np
import pytest


GOLDEN_B = Params(Surd.make(1, -1, 2, 5), Surd.make(-1, 1, 2, 5))  # a = -b = -(sqrt5-1)/2


def test_orbit_a_upper_minus_6_5():
    p = Params.make("-6/5", "1/2")
    rec = detect_cycle(p, "a", 50).upper_orbit
    # Sa = 5/6, then T^-1 -> -1/6, S -> 6, T^-1 -> 5, ...
    assert rec.values[:4] == [Fraction(5, 6), Fraction(-1, 6), Fraction(6), Fraction(5)]


def test_orbit_a_upper_degenerate_minus1():
    p = Params.make("-1", "1/2")
    rec = detect_cycle(p, "a", 10).upper_orbit
    assert rec.values[:2] == [Fraction(1), Fraction(0)]  # Sa = 1, T^-1 -> 0


def test_orbit_reroute_at_a():
    # lower orbit of b hitting a continues with Ta
    p = GOLDEN_B
    rec = detect_cycle(p, "b", 20).lower_orbit
    a = p.a
    idx = rec.values.index(a)
    assert rec.values[idx + 1] == a + 1
    assert rec.gens[idx] == T


def test_a_cycle_strong_below_minus1():
    for b in ["1/2", "1/3", "2/3"]:
        p = Params.make("-6/5", b)
        res = detect_cycle(p, "a")
        assert res.classification == "strong"
        assert res.end == Fraction(5)  # c_a = -1/(a+1)


def test_b_cycle_weak_at_half():
    res = detect_cycle(Params.make("-3/5", "1/2"), "b")
    assert res.classification == "weak"
    assert res.end == 0


def test_b_cycle_zagier():
    res = detect_cycle(Params.make("-4/5", "2/5"), "b")
    assert res.classification == "strong"
    assert res.end == Fraction(2)  # c_b = b/(1-2b)
    res_a = detect_cycle(Params.make("-4/5", "2/5"), "a")
    assert res_a.classification == "strong"
    assert res_a.end == Fraction(-4)


def test_golden_periodic_no_cycle():
    res = detect_cycle(GOLDEN_B, "b")
    assert res.classification == "periodic_no_cycle"


def test_lockstep_meeting_values_equal():
    rng = np.random.default_rng(2)
    for p in interior_rational_params(rng, 15):
        res = detect_cycle(p, "b")
        if res.classification in ("strong", "weak"):
            assert res.end_word_upper.apply(p.b) == res.end
            assert res.end_word_lower.apply(p.b) == res.end


def test_no_repeats_within_sides():
    rng = np.random.default_rng(3)
    for p in interior_rational_params(rng, 15):
        for which in ("a", "b"):
            res = detect_cycle(p, which)
            if res.classification in ("strong", "weak"):
                assert len(set(res.upper_side)) == len(res.upper_side)
                assert len(set(res.lower_side)) == len(res.lower_side)


def test_weak_iff_end_zero():
    rng = np.random.default_rng(5)
    for p in interior_rational_params(rng, 25):
        for which in ("a", "b"):
            res = detect_cycle(p, which)
            if res.classification in ("strong", "weak"):
                assert (res.classification == "weak") == (res.end == 0)


def test_strong_end_dichotomy():
    # for 0 < b <= -a < 1 and b strong: c_b < Sb or c_b > Sa
    rng = np.random.default_rng(7)
    found = 0
    for p in interior_rational_params(rng, 40):
        if not (0 < as_float(p.b) <= -as_float(p.a) < 1):
            continue
        res = detect_cycle(p, "b")
        if res.classification != "strong":
            continue
        found += 1
        sb, sa = -1 / p.b, -1 / p.a
        assert res.end < sb or res.end > sa
    assert found >= 5


def test_symmetry_mirror():
    rng = np.random.default_rng(11)
    for p in interior_rational_params(rng, 10):
        rb = detect_cycle(p, "b")
        ra = detect_cycle(p.mirrored(), "a")
        assert rb.classification == ra.classification
        if rb.classification in ("strong", "weak"):
            assert ra.end == -rb.end
            # mirroring swaps the upper/lower sides of the cycle
            assert (ra.upper_steps, ra.lower_steps) == (rb.lower_steps, rb.upper_steps)


def test_truncated_orbits_simple_case():
    p = Params.make("-7/10", "4/5")
    tro = truncated_orbits(p)
    assert sorted(v for v, _ in tro.la) == [Fraction(-10, 3), Fraction(3, 10)]
    assert sorted(v for v, _ in tro.ua) == [Fraction(3, 7), Fraction(10, 7)]
    assert sorted(v for v, _ in tro.lb) == [Fraction(-5, 4), Fraction(-1, 4)]
    assert sorted(v for v, _ in tro.ub) == [Fraction(-1, 5), Fraction(5)]


def test_truncated_orbits_weak_include_zero():
    tro = truncated_orbits(Params.make("-1/2", "1/2"))
    assert Fraction(0) in [v for v, _ in tro.la]
    assert Fraction(0) in [v for v, _ in tro.ua]


def test_shift_consequence_flags_agree():
    # finiteness of the lower orbit data implies the upper's, per endpoint
    rng = np.random.default_rng(13)
    for p in interior_rational_params(rng, 15):
        tro = truncated_orbits(p)
        assert tro.finite
        assert bool(tro.la) == bool(tro.ua) or tro.cycle_a.classification in ("strong", "weak")
        assert bool(tro.lb) == bool(tro.ub) or tro.cycle_b.classification in ("strong", "weak")


def test_finiteness_interior_rationals():
    rng = np.random.default_rng(17)
    for p in interior_rational_params(rng, 10):
        assert truncated_orbits(p, cap=10_000).finite
    assert truncated_orbits(Params.make("-1", "1")).finite


def test_finiteness_golden():
    assert truncated_orbits(GOLDEN_B, cap=1_000).finite  # periodic orbits are finite


def test_degenerate_pairs_are_finite():
    # verify reports "finite" from the explicit domain of a degenerate pair
    # without running its orbits; they do resolve, on every degenerate pair
    # of P with denominators <= 6 and 1 <= |endpoint| <= 6, and on the surds
    ends = sorted({Fraction(n, d) for d in range(1, 7) for n in range(d, 6 * d + 1)})
    phi = Surd.make(1, 1, 2, 5)  # (1 + sqrt 5)/2
    pairs = [Params(Fraction(0), e) for e in ends] + [Params(-e, Fraction(0)) for e in ends]
    pairs += [Params.make("-1", "1"), Params(Fraction(0), phi), Params(-phi, Fraction(0))]
    assert all(p.degenerate for p in pairs)
    for p in pairs:
        assert truncated_orbits(p).finite, (p.a, p.b)


def test_float_mode_never_claims_strength():
    res = detect_cycle(Params.make(-0.8, 0.4), "b", cap=500)
    assert res.classification in ("undetermined", "periodic_no_cycle")
    assert res.approximate


def test_seed_at_endpoint_reroutes():
    # Sb = a exactly (a*b = -1): the lower orbit of b continues with Ta
    p = Params.make("-1/2", "2")
    rec = detect_cycle(p, "b", 10).lower_orbit
    assert rec.values[0] == p.a
    assert rec.values[1] == p.a + 1
    assert rec.gens[0] == T


def test_cycle_end_values_match_m1_diagrams():
    # for the simple four-box region: c_a = a/(a+1), c_b = b/(1-b)
    p = Params.make("-7/10", "4/5")
    assert detect_cycle(p, "a").end == Fraction(-7, 3)
    assert detect_cycle(p, "b").end == Fraction(4)


def test_zagier_cycle_diagram_stations():
    # the explicit m = 2, b < 1/2 diagram: upper side passes through
    # b-1, -1/(b-1), 1 + b/(1-2b); lower side through -1/b, -(1-2b)/b
    p = Params.make("-4/5", "2/5")
    res = detect_cycle(p, "b")
    b = p.b
    assert res.upper_side[0] == b - 1
    assert res.upper_side[1] == -1 / (b - 1)
    assert res.upper_side[-1] == 1 + b / (1 - 2 * b)
    assert res.lower_side[0] == -1 / b
    assert res.lower_side[-1] == -(1 - 2 * b) / b
    assert res.end == b / (1 - 2 * b)


def test_cycle_word_multiplies_out_beyond_512_tokens():
    # the a-cycle of (-199/200, 1/200) has a 799-generator word
    res = detect_cycle(Params.make("-199/200", "1/200"), "a")
    tokens = res.to_json()["word"].split()
    assert len(tokens) == 799
    m = IDENTITY
    for t in tokens:  # application order
        m = {"T": T, "T'": T_INV, "S": S}[t] @ m
    assert m.psl_eq(res.cycle_word)



def test_cycle_records_of_each_shape():
    # the b of test_exceptional_midpoint_fails_finiteness: no cycle at cap 400
    plan = [("case1", 2), ("case1", 3), ("case1", 2), ("case1", 2), ("case1", 3)]
    b = exceptional_b(3, plan, target_width=1e-60).b_mid
    cases = [
        (Params.make("-4/5", "2/5"), "b", 100_000, "strong"),
        (Params.make("-3/5", "1/2"), "b", 100_000, "weak"),
        (GOLDEN_B, "b", 100_000, "periodic_no_cycle"),
        (Params(b - 1, b), "a", 400, "undetermined"),
        (Params.make(-0.8, 0.4), "b", 100_000, "undetermined"),
    ]
    records = []
    for p, which, cap, cls in cases:
        res = detect_cycle(p, which, cap)
        records.append(res)
        assert res.classification == cls
        endpoint = p.a if which == "a" else p.b
        for side, words in ((res.upper_side, res.upper_words), (res.lower_side, res.lower_words)):
            assert len(words) == len(side)
            if p.exact:
                assert [w.apply(endpoint) for w in words] == side
        assert (res.upper_steps is None) == (res.lower_steps is None) == (res.end is None)
        assert res.upper_orbit is not None and res.lower_orbit is not None
    # the exact unresolved endpoint keeps both orbits, run to the cap, and no sides
    res = records[3]
    assert res.upper_side == res.lower_side == res.upper_words == res.lower_words == []
    assert len(res.upper_orbit.values) == len(res.lower_orbit.values) == 401
    # a float pair whose orbits meet keeps the whole record, strength unclaimed
    res = records[4]
    assert (len(res.upper_side), len(res.lower_side)) == (res.upper_steps, res.lower_steps) == (5, 3)
    assert abs(res.end - 2) < 1e-12 and res.to_json()["word"] is not None


def test_walk_stops_at_the_meeting():
    # the orbits of (-1/10^400, 10^400) meet within a few steps but never
    # repeat; nothing past the meeting is walked
    big = 10**400
    p = Params(Fraction(-1, big), Fraction(big))
    for which, sides in (("a", (2, 2)), ("b", (1, 3))):
        res = detect_cycle(p, which)
        assert res.classification == "strong"
        assert (res.upper_steps, res.lower_steps) == sides
        assert len(res.upper_orbit.values) <= 4 and len(res.lower_orbit.values) <= 4


def test_b_not_walked_once_a_fails():
    plan = [("case1", 2), ("case1", 3), ("case1", 2), ("case1", 2), ("case1", 3)]
    b = exceptional_b(3, plan, target_width=1e-60).b_mid
    p = Params(b - 1, b)
    tro = truncated_orbits(p, cap=400)
    assert not tro.finite and tro.cycle_a.classification == "undetermined"
    assert tro.cycle_b.classification == "undetermined"
    assert tro.cycle_b.upper_orbit is None and tro.cycle_b.lower_orbit is None
    assert tro.lb == tro.ub == []
    with pytest.raises(ConstructionError) as info:
        build_attractor(p, 400)
    assert info.value.failed_endpoint == "a"
