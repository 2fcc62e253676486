"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings; every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from fractions import Fraction

import numpy as np

from abcf.attractor import (
    build_attractor,
    compare_with_oracle,
    reduction_scan,
    verify_bijectivity,
)
from abcf.cf import bounded_digit_interval, convergents, expand
from abcf.cycles import detect_cycle, truncated_orbits
from abcf.exceptional import base_length, run_plan, triangle_region
from abcf.measures import (
    entropy_rokhlin,
    gauss_domain,
    invariance_check,
    mu_mass,
    nu_mass,
    rokhlin_integral,
)
from abcf.mobius import S
from abcf.natext import sample_attractor, trapping_region
from abcf.params import Params, interior_rational_params
from abcf.scalars import NEG_INF, POS_INF, Surd, as_float, cmp_exact
from abcf.svg import render_svg


def report(n, label, elapsed, ok=True):
    print(f"\nACCEPTANCE {n:>2} [{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")


def test_criterion_01_classical_domain_exact():
    t0 = time.time()
    dom = build_attractor(Params.make("-1", "1"))
    cols = [(s.x_lo, s.x_hi, s.y) for s in dom.upper] + [
        (s.x_lo, s.x_hi, s.y) for s in dom.lower
    ]
    # the four explicit boxes (columns), exact rational corners; the first
    # box's lower edge is b - 1 = 0, forced by forward invariance and the
    # exact tiling (see the decisions ledger on the Remark's display)
    assert cols == [
        (NEG_INF, Fraction(-1), Fraction(0)),
        (Fraction(-1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
        (Fraction(1), POS_INF, Fraction(0)),
    ]
    trap = sorted(b.floats() for b in trapping_region(dom.params).boxes)
    from abcf.natext import Box

    cols_f = sorted(
        [Box(s.x_lo, s.x_hi, s.y, POS_INF).floats() for s in dom.upper]
        + [Box(s.x_lo, s.x_hi, NEG_INF, s.y).floats() for s in dom.lower]
    )
    assert cols_f == trap
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "classical (-1,1) domain equals the four explicit boxes", elapsed)


def test_criterion_02_zagier_example():
    t0 = time.time()
    p = Params.make("-4/5", "2/5")
    dom = build_attractor(p)
    rb = detect_cycle(p, "b")
    ra = detect_cycle(p, "a")
    assert rb.classification == "strong" and rb.end == Fraction(2)
    assert ra.classification == "strong" and ra.end == Fraction(-4)
    cloud = sample_attractor(p, burn_in=300, n_points=100_000, seed=11)
    cmp_rep = compare_with_oracle(dom, cloud)
    assert cmp_rep.inside_fraction >= 0.999
    assert cmp_rep.boundary_gap <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        2,
        f"Zagier pair: strong cycles (2, -4), inside={cmp_rep.inside_fraction:.4f}, "
        f"gap={cmp_rep.boundary_gap:.3f}",
        elapsed,
    )


def test_criterion_03_cycle_oracles():
    t0 = time.time()
    res = detect_cycle(Params.make("-6/5", "1/2"), "a")
    assert res.classification == "strong" and res.end == Fraction(5)
    t1 = time.time()
    assert t1 - t0 < 1.0
    res = detect_cycle(Params.make("-3/5", "1/2"), "b")
    assert res.classification == "weak" and res.end == 0
    t2 = time.time()
    assert t2 - t1 < 1.0
    golden = Surd.make(-1, 1, 2, 5)
    res = detect_cycle(Params(-golden, golden), "b")
    assert res.classification == "periodic_no_cycle"
    t3 = time.time()
    assert t3 - t2 < 1.0
    report(3, "cycle oracles: strong c_a=5, weak c_b=0, golden periodic", t3 - t0)


def test_criterion_04_corner_system():
    t0 = time.time()
    assert (lambda d: (d.x_a, d.x_b))(build_attractor(Params.make("-7/10", "4/5"))) == (1, -1)
    assert (lambda d: (d.x_a, d.x_b))(build_attractor(Params.make("-4/5", "2/5"))) == (2, -1)
    for b, m in [("1/2", 1), ("1/3", 2), ("1/4", 3)]:
        dom = build_attractor(Params.make("-6/5", b))
        assert (dom.x_a, dom.x_b) == (m, -1)
    report(4, "corner system special cases (1,-1), (2,-1), (m,-1)", time.time() - t0)


def test_criterion_05_bijectivity_tiling():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    worst = 0.0
    for p in interior_rational_params(rng, 10):
        t1 = time.time()
        dom = build_attractor(p)
        rep = verify_bijectivity(dom)
        assert rep.ok, (p, rep)
        assert rep.overlap_cells == 0 and rep.uncovered_cells == 0
        dt = time.time() - t1
        assert dt < 10.0
        worst = max(worst, dt)
    report(5, f"exact tiling for 10 random pairs (worst {worst:.2f}s each)", time.time() - t0)


BOTH_STRONG = [("-4/5", "2/5"), ("-7/10", "4/5"), ("-3/4", "4/7"), ("-6/5", "1/3"), ("-5/6", "3/5")]


def test_criterion_06_reduction_conjecture():
    t0 = time.time()
    for pair in BOTH_STRONG:
        t1 = time.time()
        p = Params.make(*pair)
        assert detect_cycle(p, "a").classification == "strong"
        assert detect_cycle(p, "b").classification == "strong"
        dom = build_attractor(p)
        rep = reduction_scan(dom, grid=100, cap=10_000)
        assert rep.coverage == 1.0, (pair, rep)
        assert time.time() - t1 < 60.0
    report(6, f"reduction scan coverage 1.0 for {len(BOTH_STRONG)} both-strong pairs", time.time() - t0)


def test_criterion_07_convergence():
    t0 = time.time()
    rng = np.random.default_rng(2000)
    pools = [Params.make(-0.5, 0.5), Params.make(-0.8, 0.4), Params.make(-0.7, 0.8)]
    for i in range(100):
        p = pools[i % len(pools)]
        x = float(rng.uniform(-8, 8))
        exp = expand(x, p, max_digits=30)
        cs = convergents(exp.digits)
        for c0, c1 in zip(cs, cs[1:]):
            assert c0.p * c1.q - c1.p * c0.q == 1
        cur = x
        for k, n in enumerate(exp.digits):
            t = cur - n
            if t == 0:
                break
            cur = -1.0 / t
            if k + 1 < len(exp.digits) and abs(cur) >= 1 and cs[k].q != 0:
                assert abs(as_float(cs[k].value) - x) <= 1.0 / abs(cs[k].q) + 1e-12
    report(7, "float-mode convergence and determinant identity, 100 samples", time.time() - t0)


def test_criterion_08_bounded_digit_recursion():
    t0 = time.time()
    rng = np.random.default_rng(3000)
    for m in (2, 3, 4):
        for k in range(1, 21):
            seqs = {tuple(int(rng.integers(0, 2)) + m for _ in range(k)) for _ in range(25)}
            seqs |= {(m,) * k, (m + 1,) * k}
            for seq in seqs:
                seq = (m,) + seq[1:]
                low, high, length = bounded_digit_interval(m, list(seq))
                assert high - low == length  # l = 1/(q_k (q_k - q_{k-1})) holds exactly
                lo_m, _, _ = bounded_digit_interval(m, list(seq) + [m])
                _, hi_m1, _ = bounded_digit_interval(m, list(seq) + [m + 1])
                K = k + 1  # bound read at the child level (see ledger)
                assert hi_m1 - lo_m <= Fraction(2 * K, 2 * K + 1) * length
    report(8, "interval lengths and union-ratio bound, k <= 20, m in {2,3,4}", time.time() - t0)


APERIODIC_PLAN = [
    ("case1", 2),
    ("case1", 2),
    ("case1", 3),
    ("case1", 2),
    ("case1", 2),
    ("case1", 2),
    ("case1", 3),
    ("case1", 2),
]


def test_criterion_09_exceptional_construction():
    t0 = time.time()
    schemes = run_plan(3, APERIODIC_PLAN)
    tris = [s.triangle() for s in schemes[1:]]
    assert all(not t.empty for t in tris)
    for t1, t2 in zip(tris, tris[1:]):
        assert cmp_exact(t2.b_lo, t1.b_lo) >= 0 and cmp_exact(t2.b_hi, t1.b_hi) <= 0
    lens = [base_length(s) for s in schemes[1:]]
    for l1, l2 in zip(lens, lens[1:]):
        assert cmp_exact(l2, l1) < 0  # strictly decreasing along the plan
    final = tris[-1]
    assert final.width < 1e-6
    from abcf.scalars import midpoint_rational

    b = midpoint_rational(final.b_lo, final.b_hi)
    p = Params(b - 1, b)
    tro = truncated_orbits(p, cap=1_000)
    assert not tro.finite
    # the digit values of the unresolved endpoint: two consecutive ones
    endpoint = p.a if tro.cycle_a.classification == "undetermined" else p.b
    digit_values = sorted(set(expand(S.apply(endpoint), p, 60).digits[1:]))
    assert len(digit_values) == 2
    # forbidden patterns yield empty triangles
    assert triangle_region(3, [3, 3, 4, 4]).empty  # consecutive m+1 after A-led prefix
    assert triangle_region(3, [3, 3, 4, 3, 3, 3]).empty  # m-block longer than l_m
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        9,
        f"8-step plan: nested nonempty triangles, widths to {final.width:.1e}, "
        f"finiteness fails at cap 1e3 (digits {digit_values})",
        elapsed,
    )


def test_criterion_10_measures():
    t0 = time.time()
    for pair in [("-7/10", "4/5"), ("-1", "1")]:
        p = Params.make(*pair)
        g = gauss_domain(p)
        assert abs(nu_mass(g) - 1) <= 1e-8
        assert abs(mu_mass(g) - 1) <= 1e-8
        a, b = as_float(p.a), as_float(p.b)
        closed = math.pi**2 / (3 * math.log((1 - a) * (1 + b)))
        assert abs(entropy_rokhlin(g) - closed) <= 1e-5
        assert abs(rokhlin_integral(g) + math.pi**2 / 6) <= 1e-6
        ks = invariance_check(g, 1_000_000, seed=7)
        assert ks <= 3e-3, (pair, ks)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(10, "masses, Rokhlin entropy, I(a,b), KS at 1e6 samples", elapsed)


def test_criterion_11_figure_goldens():
    from pathlib import Path

    t0 = time.time()
    golden = Path(__file__).parent / "golden"
    p = Params.make("-4/5", "2/5")
    dom = build_attractor(p)
    cloud = sample_attractor(p, burn_in=200, n_points=10_000, seed=20)
    fig1 = render_svg(dom, cloud, (-4, 4, -4, 4))
    assert fig1 == render_svg(dom, cloud, (-4, 4, -4, 4))
    assert fig1 == (golden / "fig1_zagier.svg").read_text()
    for name, (a, b) in {
        "fig4_minus": ("-1", "0"),
        "fig4_artin": ("-1", "1"),
        "fig4_hurwitz": ("-1/2", "1/2"),
    }.items():
        text = render_svg(build_attractor(Params.make(a, b)), None, (-4, 4, -4, 4))
        assert text == (golden / f"{name}.svg").read_text()
    report(11, "figure goldens byte-stable (fig 1 and three classical panels)", time.time() - t0)
