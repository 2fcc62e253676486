import hashlib
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abcf.cli  # noqa: F401  (loads every module that binds cmp_exact)
from abcf import scalars
from abcf.cf import evaluate_minus_cf, expand
from abcf.cycles import truncated_orbits
from abcf.exceptional import (
    SubstitutionScheme,
    base_length,
    base_value,
    exceptional_b,
    parse_plan,
    run_plan,
    substitution_step,
    triangle_region,
    vertex_value,
)
from abcf.mobius import Mobius, S, minus_cf_matrix
from abcf.params import Params
from abcf.scalars import Surd, as_float, cmp_exact, enclosure


def admissible_prefix(m, plan, depth, check_prefixes=False):
    """Digit prefix A^(depth) of the sequence encoded by a plan.

    With check_prefixes, asserts that the triangle of every prefix of the
    emitted digits is nonempty (they nest, so this certifies the chain).
    """
    schemes = run_plan(m, plan, depth)
    prefix = schemes[-1].A
    if check_prefixes:
        for j in range(1, len(prefix) + 1):
            if triangle_region(m, prefix[:j]).empty:
                raise AssertionError(f"empty prefix triangle at {prefix[:j]}")
    return prefix


def test_triangle_seed():
    t = triangle_region(3, [3])
    assert t.b_hi == Surd.make(3, -1, 2, 5)  # (3 - sqrt5)/2
    assert t.b_lo == Surd.make(-1, 1, 2, 3)  # (-1 + sqrt3)/2
    assert not t.empty
    assert abs(as_float(t.b_hi) - 0.38197) < 1e-5
    assert abs(as_float(t.b_lo) - 0.36603) < 1e-5


def test_triangle_mm_ordering():
    t0 = triangle_region(3, [3])
    t = triangle_region(3, [3, 3])
    assert not t.empty
    # b_lo(3) < b_tilde = b_lo(3,3) < b_hi
    assert cmp_exact(t0.b_lo, t.b_lo) < 0 < cmp_exact(t.b_hi, t.b_lo)
    assert cmp_exact(t.b_hi, t0.b_hi) == 0


def test_triangle_case2_block_nonempty():
    # (3,4,4) is the case-2 block A1 with l_{m+1} = 2: a legitimate region
    assert not triangle_region(3, [3, 4, 4]).empty


def test_forbidden_patterns_empty():
    # consecutive (m+1)'s after an m-led (case-1) prefix
    assert triangle_region(3, [3, 3, 4, 4]).empty
    assert triangle_region(3, [3, 3, 3, 4, 4]).empty
    # m-block longer than l_m
    assert triangle_region(3, [3, 3, 4, 3, 3, 3]).empty
    assert triangle_region(4, [4, 4, 5, 4, 4, 4]).empty


def test_triangle_validation():
    with pytest.raises(ValueError):
        triangle_region(3, [4, 3])
    with pytest.raises(ValueError):
        triangle_region(3, [3, 5])
    with pytest.raises(ValueError):
        triangle_region(2, [2])


def test_fixed_point_residual_exact():
    # f^seq applied to the vertex value reproduces it exactly
    from abcf.mobius import minus_cf_matrix

    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(1, 19)
        seq = (3,) + tuple(rng.choice([3, 4]) for _ in range(k))
        b = vertex_value(seq)
        word = minus_cf_matrix(list(reversed(seq)))  # T^{n_k}S ... T^{n_1}S
        assert word.apply(b) == b


def test_substitution_step_blocks():
    s = SubstitutionScheme.initial(3)
    s1 = substitution_step(s, "case1", 2)
    assert s1.A == (3, 3, 4) and s1.B == (3, 4)
    assert s1.sigma == (3, 3)
    s1b = substitution_step(s, "case2", 1)
    assert s1b.A == (3, 4) and s1b.B == (3, 4, 4)
    assert s1b.sigma == (3,)


def test_substitution_multiplicity_validation():
    s = SubstitutionScheme.initial(3)
    with pytest.raises(ValueError):
        substitution_step(s, "case1", 1)
    with pytest.raises(ValueError):
        substitution_step(s, "case2", 0)


def test_admissible_prefix_unrolls():
    assert admissible_prefix(3, [("case1", 2), ("case1", 2)], 2) == (3, 3, 4, 3, 3, 4, 3, 4)
    assert admissible_prefix(3, [("case1", 2)], 0) == (3,)


def test_admissible_prefix_all_prefixes_nonempty():
    plan = [("case1", 2), ("case2", 1), ("case1", 3)]
    prefix = admissible_prefix(3, plan, 3, check_prefixes=True)
    assert len(prefix) > 10


def test_sigma_equation_all_generations():
    plan = [("case1", 2), ("case2", 1), ("case1", 2), ("case2", 2), ("case1", 3)]
    for sch in run_plan(3, plan)[1:]:
        # f^sigma(b_lo) == b_lo/(b_lo + 1), exactly
        tri = sch.triangle()
        assert not tri.empty
        # f^sigma = T^{s_k} S ... T^{s_1} S: reversed digit order vs the CF matrix
        word = minus_cf_matrix(list(reversed(sch.sigma)))
        assert cmp_exact(word.apply(tri.b_lo), tri.b_lo / (tri.b_lo + 1)) == 0


def test_lexicographic_value_order():
    rng = random.Random(7)
    for _ in range(1000):
        k = rng.randint(1, 8)
        s1 = [rng.randint(2, 6) for _ in range(k)]
        s2 = list(s1)
        j = rng.randrange(k)
        if s1[j] >= 6:
            continue
        s2[j] = s1[j] + rng.randint(1, 2)
        tail = [rng.randint(2, 6) for _ in range(3)]
        v1 = evaluate_minus_cf([0] + s1 + tail + [2, 3])
        v2 = evaluate_minus_cf([0] + s2 + tail[::-1] + [2, 3])
        assert v1 < v2  # sigma1 < sigma2 lexicographically => smaller value


def test_tail_dominance():
    plan = [("case1", 2), ("case2", 2), ("case1", 3)]
    for sch in run_plan(3, plan)[1:]:
        A = sch.A
        for i in range(1, len(A)):
            tail = A[i:]
            k = min(len(tail), len(A))
            assert A[:k] <= tail[:k]  # A precedes every proper tail


def test_triangle_nesting_along_prefixes():
    plan = [("case1", 2), ("case2", 1)]
    prefix = admissible_prefix(3, plan, 2)
    prev = None
    for j in range(1, len(prefix) + 1):
        t = triangle_region(3, prefix[:j])
        assert not t.empty
        if prev is not None:
            assert cmp_exact(t.b_lo, prev.b_lo) >= 0
            assert cmp_exact(t.b_hi, prev.b_hi) <= 0
        prev = t


def test_base_length_positive_and_closed_form():
    s1 = substitution_step(SubstitutionScheme.initial(3), "case1", 2)
    L = base_length(s1)
    assert L > 0
    tri = s1.triangle()
    assert cmp_exact(tri.b_hi, tri.b_lo) > 0
    # gen-1 base length is below the generation-0 triangle's b-width
    t0 = triangle_region(3, [3])
    (_, hi0, d_hi), (lo0, _, d_lo), (_, hi_L, d_L) = (enclosure(x, 80) for x in (t0.b_hi, t0.b_lo, L))
    width0 = Fraction(hi0, d_hi) - Fraction(lo0, d_lo)
    assert Fraction(hi_L, d_L) < width0


def test_generation_0_base_is_base_value():
    # triangle() reads every generation's base as -(0, A, overline(B)); at
    # generation 0 that is base_value((m,), m), surd for surd
    for m in range(3, 11):
        lo = SubstitutionScheme.initial(m).triangle().b_lo
        want = base_value((m,), m)
        assert isinstance(lo, Surd) and isinstance(want, Surd)
        assert (lo.p, lo.q, lo.r, lo.d) == (want.p, want.q, want.r, want.d)


def test_exceptional_b_early_stop():
    plan = [("case1", 2)] * 6
    enc = exceptional_b(3, plan, target_width=1e-6)
    assert enc.generations < 6
    assert enc.width < 1e-6
    t1 = substitution_step(SubstitutionScheme.initial(3), "case1", 2).triangle()
    assert t1.b_lo < enc.b_mid < t1.b_hi  # inside the first triangle


def test_exceptional_b_plan_exhausted():
    with pytest.raises(ValueError):
        exceptional_b(3, [("case1", 2)], target_width=1e-300)


def test_exceptional_midpoint_fails_finiteness():
    plan = [("case1", 2), ("case1", 3), ("case1", 2), ("case1", 2), ("case1", 3)]
    enc = exceptional_b(3, plan, target_width=1e-60)
    b = enc.b_mid
    p = Params(b - 1, b)
    tro = truncated_orbits(p, cap=400)
    assert not tro.finite
    # the unresolved endpoint's digits take two consecutive values
    endpoint = p.a if tro.cycle_a.classification == "undetermined" else p.b
    assert len(set(expand(S.apply(endpoint), p, 60).digits[1:])) == 2


@pytest.mark.parametrize(
    "plan, width, bits, digest",
    [
        ("m=3;1x2,1x2,1x3,1x2,1x2,1x2,1x3,1x2", 1e-200, 5406, "830cb7384a6c4988"),
        ("m=3;2x1,2x2,2x1,2x1,2x2,2x1,2x1", 1e-250, 1340, "4f493dee586129b6"),
    ],
)
def test_deep_plan_b_is_pinned(plan, width, bits, digest):
    # the simplest rational in the last triangle's gap, whose digits come in
    # many leading-bit batches; pinned by the sha256 of its "p/q" text
    b = exceptional_b(*parse_plan(plan), width).b_mid
    assert b.denominator.bit_length() == bits
    assert hashlib.sha256(f"{b.numerator}/{b.denominator}".encode()).hexdigest().startswith(digest)


def test_exceptional_outputs_match_the_golden_hashes():
    # `exceptional` on the two deep benchmark plans and CI's plan at 1e-60,
    # and `verify --suite all --cap 1000` on each deep plan's (b - 1, b),
    # print byte for byte what they printed when golden/exceptional.sha256
    # was written by golden/make_exceptional.py
    golden = Path(__file__).parent / "golden"
    got = runpy.run_path(str(golden / "make_exceptional.py"))["digests"]()
    assert got == (golden / "exceptional.sha256").read_text().splitlines()


def test_triangle_and_base_length_are_the_closed_forms():
    # one tail per base: the triangle's base -(0, A, overline(B)) and the
    # base length (0, overline(B)) - (0, A, overline(B)), each evaluated
    # from its own expression, surd for surd
    plan = [("case1", 2), ("case2", 1), ("case1", 3), ("case2", 2), ("case1", 2)]
    for sch in run_plan(3, plan):
        A, B = sch.base
        left = evaluate_minus_cf([0, *A], list(B))
        want = (-left, evaluate_minus_cf([0], list(B)) - left)
        for got, w in zip((sch.triangle().b_lo, base_length(sch)), want):
            assert (got.p, got.q, got.r, got.d) == (w.p, w.q, w.r, w.d)


DEEP_PLAN = "m=3;1x2,1x2,1x3,1x2,1x2,1x2,1x3,1x2"


def count_calls(monkeypatch, owners, name: str) -> list:
    """Wrap the attribute name of each owner; every call through any of
    them appends to the one list returned."""
    calls = []
    for owner in owners:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real: calls.append(None) or real(*args))
    return calls


def test_exceptional_b_evaluates_each_tail_once(monkeypatch):
    # per generation of the 1e-200 plan (7): B's tail and the vertex, one
    # fixed_points call and one square extraction each
    fixed = count_calls(monkeypatch, [Mobius], "fixed_points")
    squares = count_calls(monkeypatch, [scalars], "_extract_square")
    assert exceptional_b(*parse_plan(DEEP_PLAN), 1e-200).generations == 7
    assert (len(fixed), len(squares)) == (14, 14)


def test_deep_orbit_walk_compares_by_floats(monkeypatch):
    # rho places the 2,002 rational orbit values of the 1e-200 plan's b by
    # one float each; only ties reach cmp_exact, counted through every
    # module that binds it
    b = exceptional_b(*parse_plan(DEEP_PLAN), 1e-200).b_mid
    params = Params(b - 1, b)
    binders = [m for n, m in sorted(sys.modules.items()) if n.startswith("abcf.") and hasattr(m, "cmp_exact")]
    calls = count_calls(monkeypatch, binders, "cmp_exact")
    tro = truncated_orbits(params, 1000)
    assert not tro.finite
    assert len(calls) < 100


def test_parse_plan():
    m, plan = parse_plan("m=3;1x2,2x1,1x4")
    assert m == 3
    assert plan == [("case1", 2), ("case2", 1), ("case1", 4)]
    with pytest.raises(ValueError):
        parse_plan("3;1x2")
