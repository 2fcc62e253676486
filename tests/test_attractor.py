import dataclasses
import functools
import gc
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcf import attractor
from abcf.attractor import (
    BijectivityReport,
    ConstructionError,
    RectDomain,
    Step,
    build_attractor,
    compare_with_oracle,
    reduction_scan,
    verify_bijectivity,
    verify_connectivity,
    _exact_sorted,
    _fkey,
    _ranks,
)
from abcf.cycles import truncated_orbits
from abcf.exceptional import exceptional_b, parse_plan
from abcf.natext import Box, F_step_array, invariant_box_measure, sample_attractor, trapping_region
from abcf.params import ParamError, Params, interior_rational_params
from abcf.scalars import NEG_INF, POS_INF, Surd, as_float, cmp_bound


Z = Params.make("-4/5", "2/5")


def column_boxes(dom):
    """Steps as closed column boxes (x_lo, x_hi, y_lo, y_hi)."""
    cols = [Box(s.x_lo, s.x_hi, s.y, POS_INF) for s in dom.upper]
    cols += [Box(s.x_lo, s.x_hi, NEG_INF, s.y) for s in dom.lower]
    return sorted(b.floats() for b in cols)


def test_classical_m11_exact_boxes():
    dom = build_attractor(Params.make("-1", "1"))
    cols = [(s.x_lo, s.x_hi, s.y) for s in dom.upper] + [
        (s.x_lo, s.x_hi, s.y) for s in dom.lower
    ]
    assert cols == [
        (NEG_INF, Fraction(-1), Fraction(0)),
        (Fraction(-1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
        (Fraction(1), POS_INF, Fraction(0)),
    ]
    # coincides with the trapping region (same four columns)
    trap = sorted(b.floats() for b in trapping_region(dom.params).boxes)
    assert column_boxes(dom) == trap


def test_classical_minus_chart():
    dom = build_attractor(Params.make("-1", "0"))
    assert dom.lower == []
    assert [(as_float(s.y)) for s in dom.upper] == [-1.0, 0.0, 1.0]


def test_corner_special_cases():
    # the (1,1) pattern
    dom = build_attractor(Params.make("-7/10", "4/5"))
    assert (dom.x_a, dom.x_b) == (1, -1)
    # the (1,2) pattern
    dom = build_attractor(Z)
    assert (dom.x_a, dom.x_b) == (2, -1)
    # a <= -1 with Sb-digit m gives (m, -1)
    for b, m in [("1/2", 1), ("1/3", 2), ("1/4", 3)]:
        dom = build_attractor(Params.make("-6/5", b))
        assert (dom.x_a, dom.x_b) == (m, -1), (b, dom.x_a)
    dom = build_attractor(Params.make("-3/2", "1/4"))
    assert (dom.x_a, dom.x_b) == (3, -1)


def test_hurwitz_chart_golden_corners():
    dom = build_attractor(Params.make("-1/2", "1/2"))
    g = Surd.make(1, 1, 2, 5)
    assert dom.x_a == g and dom.x_b == -g


@pytest.mark.parametrize(
    "a, b, levels, corners",
    [
        # a b-anchored lower level fixes x_b; the upper level then gives x_a
        ("-1", "1/2", ("Lb[1]", "Ub[2]"), (2, -1)),
        # both levels a-anchored: the upper one fixes x_a, the lower gives x_b
        ("-1/2", "1", ("La[2]", "Ua[1]"), (1, -2)),
        # coupled: x_a is the attracting fixed point of a hyperbolic word
        ("-1/2", "1/2", ("La[2]", "Ub[2]"), (Surd.make(1, 1, 2, 5), Surd.make(-1, -1, 2, 5))),
    ],
)
def test_corners_of_each_solve_branch(a, b, levels, corners):
    dom = build_attractor(Params.make(a, b))
    assert (dom.x_a, dom.x_b) == corners
    entries = {e.origin: e for e in sum(attractor._entries(dom.orbits), [])}
    assert attractor._solve_pair(entries[levels[0]], entries[levels[1]])[0] == corners


def test_level_multiset_identity():
    rng = np.random.default_rng(19)
    for p in interior_rational_params(rng, 8):
        dom = build_attractor(p)
        tro = truncated_orbits(p)
        assert sorted(as_float(v) for v, _ in tro.la + tro.lb) == [
            as_float(s.y) for s in dom.lower
        ]
        assert sorted(as_float(v) for v, _ in tro.ua + tro.ub) == [
            as_float(s.y) for s in dom.upper
        ]


def test_monotone_steps():
    rng = np.random.default_rng(23)
    for p in interior_rational_params(rng, 8):
        dom = build_attractor(p)
        for steps in (dom.lower, dom.upper):
            xs = [s.x_lo for s in steps]
            for u, v in zip(xs, xs[1:]):
                from abcf.scalars import cmp_bound

                assert cmp_bound(u, v) <= 0


def test_connectivity_report_and_negative_control():
    dom = build_attractor(Z)
    rep = verify_connectivity(dom)
    assert rep["ok"] and not rep["failures"]
    # corrupt one join
    bad_lower = list(dom.lower)
    s = bad_lower[2]
    bad_lower[2] = Step(s.x_lo + Fraction(1, 100), s.x_hi, s.y, s.origin)
    bad = RectDomain(dom.params, dom.upper, bad_lower, dom.x_a, dom.x_b, orbits=dom.orbits)
    rep = verify_connectivity(bad)
    assert not rep["ok"] and rep["failures"]
    # the construction's verdict holds only while the domain is unchanged:
    # a copy with the corrupted steps, or the built domain corrupted in
    # place, is checked afresh
    assert verify_connectivity(dataclasses.replace(dom, lower=bad_lower)) == rep
    dom.lower[2] = bad_lower[2]
    assert verify_connectivity(dom) == rep


def test_connectivity_named_joins_zagier():
    dom = build_attractor(Z)
    # levels STa | Sb join at 0 and Sa | ST^-1 b join at 0
    la1 = next(s for s in dom.lower if s.origin == "La[1]")
    lb0 = next(s for s in dom.lower if s.origin == "Lb[0]")
    assert la1.x_hi == 0 and lb0.x_lo == 0
    ua0 = next(s for s in dom.upper if s.origin == "Ua[0]")
    ub1 = next(s for s in dom.upper if s.origin == "Ub[1]")
    assert ua0.x_hi == 0 and ub1.x_lo == 0


def test_bijectivity_random_interior():
    rng = np.random.default_rng(29)
    for p in interior_rational_params(rng, 10):
        dom = build_attractor(p)
        rep = verify_bijectivity(dom)
        assert rep.ok, (p, rep.to_json())
        assert rep.overlap_measure == 0 and rep.uncovered_measure == 0


def test_bijectivity_locking_segments():
    rep = verify_bijectivity(build_attractor(Z))
    assert len(rep.locking_segments) == 2  # both endpoints strong
    rep = verify_bijectivity(build_attractor(Params.make("-1", "1")))
    assert rep.ok and len(rep.locking_segments) == 0  # weak cycles
    rep = verify_bijectivity(build_attractor(Params.make("-1", "0")))
    assert rep.ok


@pytest.mark.parametrize(
    "i, shift, cells, overlap_measure, uncovered_measure",
    [
        # negative controls: moving a lower corner right leaves part of the
        # domain outside every image and sends part of one image outside it
        (2, Fraction(1, 100), (0, 2, 1), 0.0, 0.001138952287131123),
        # moving one left also makes two images overlap
        (3, -Fraction(1, 100), (2, 2, 2), 0.000430200049654883, 0.0011467891165065636),
    ],
    ids=["gap", "overlap"],
)
def test_bijectivity_reports_a_corrupted_domain(
    i, shift, cells, overlap_measure, uncovered_measure
):
    dom = build_attractor(Z)
    s = dom.lower[i]
    dom.lower[i] = dataclasses.replace(s, x_lo=s.x_lo + shift)
    rep = verify_bijectivity(dom)
    assert not rep.ok
    assert (rep.overlap_cells, rep.uncovered_cells, rep.escaped_cells) == cells
    assert rep.overlap_measure == pytest.approx(overlap_measure, rel=1e-12, abs=0.0)
    assert rep.uncovered_measure == pytest.approx(uncovered_measure, rel=1e-12)


def _corrupted(dom):
    """The domain with one of its first four lower x_lo or upper x_hi moved
    by +-1/100, in turn."""
    for side, field in (("lower", "x_lo"), ("upper", "x_hi")):
        steps = getattr(dom, side)
        for i, s in enumerate(steps[:4]):
            if getattr(s, field) in (NEG_INF, POS_INF):
                continue
            for shift in (Fraction(1, 100), -Fraction(1, 100)):
                moved = dataclasses.replace(s, **{field: getattr(s, field) + shift})
                yield dataclasses.replace(dom, **{side: [*steps[:i], moved, *steps[i + 1 :]]})


def _grid_report(dom):
    """The reference for verify_bijectivity: the tiling checked cell by cell
    on the exact grid of every box side, over the whole domain."""
    region, images = attractor._branch_images(dom)
    boxes = [*region.boxes, *images]
    xs, xr = _ranks([v for b in boxes for v in (b.x_lo, b.x_hi)])
    ys, yr = _ranks([v for b in boxes for v in (b.y_lo, b.y_hi)])

    def count_cells(ks):
        spans = [(range(*xr[2 * k : 2 * k + 2]), range(*yr[2 * k : 2 * k + 2])) for k in ks]
        return Counter((i, j) for cols, rows in spans for i in cols for j in rows)

    domain_cells = count_cells(range(len(region.boxes)))
    if any(v > 1 for v in domain_cells.values()):
        raise ConstructionError("domain boxes overlap; staircase is malformed")
    image_cells = count_cells(range(len(region.boxes), len(boxes)))
    overlap = [c for c, n in image_cells.items() if n > 1 and c in domain_cells]
    uncovered = [c for c in domain_cells if c not in image_cells]
    escaped = [c for c in image_cells if c not in domain_cells]

    def cell_measure(i, j):
        return invariant_box_measure(Box(xs[i], xs[i + 1], ys[j], ys[j + 1]))

    return BijectivityReport(
        overlap_cells=len(overlap),
        uncovered_cells=len(uncovered),
        escaped_cells=len(escaped),
        overlap_measure=math.fsum(cell_measure(*c) for c in overlap),
        uncovered_measure=math.fsum(cell_measure(*c) for c in uncovered),
        locking_segments=attractor.locking_segments(dom),
        ok=not overlap and not uncovered and not escaped,
    )


def test_sweep_agrees_with_the_grid(monkeypatch):
    # every pair of P with denominators <= 4, and its corruptions: the
    # report equals the cell grid's, the failing ones cell for cell
    vals = sorted({Fraction(n, d) for d in range(1, 5) for n in range(4 * d + 1)})
    pairs = []
    for a in vals:
        for b in vals:
            try:
                pairs.append(Params(-a, b))
            except ParamError:
                continue
    assert len(pairs) == 146
    doms = [d for p in pairs for dom in [build_attractor(p)] for d in (dom, *_corrupted(dom))]
    failing = 0
    for dom in doms:
        rep = verify_bijectivity(dom).to_json()
        assert rep == _grid_report(dom).to_json(), (dom.params.a, dom.params.b)
        failing += not rep["ok"]
    assert (len(doms), failing) == (1994, 1686)
    # a repeated image overlaps its original, and lies past the domain's
    # end when that is +oo, without a gap anywhere: the map preserves the
    # invariant measure, so no corrupted domain shows either defect alone
    real = attractor._branch_images
    for p in pairs:
        dom = build_attractor(p)
        region, images = real(dom)
        for extra in (images[0], images[-1]):
            monkeypatch.setattr(attractor, "_branch_images", lambda _: (region, [*images, extra]))
            rep = verify_bijectivity(dom).to_json()
            assert not rep["ok"] and rep == _grid_report(dom).to_json(), (p.a, p.b)


def _near_exceptional_b():
    """The generation-3 rational next to the exceptional set (926 levels)."""
    m, plan = parse_plan("m=3;1x2,1x3,1x2,1x2,1x3,1x2,1x2,1x3")
    return exceptional_b(m, plan, 1e-10).b_mid


def test_no_grid_when_the_tiling_holds(monkeypatch):
    # a passing tiling ranks only its y-cuts: the x-cuts are ranked for the
    # defects of failing bands alone
    calls = []

    def counted(values):
        calls.append(len(values))
        return _ranks(values)

    monkeypatch.setattr(attractor, "_ranks", counted)
    b = _near_exceptional_b()
    k = 53
    for p, levels in ((Params(Fraction(1, k) - 1, Fraction(1, k)), 422), (Params(b - 1, b), 926)):
        dom = build_attractor(p)
        assert len(dom.upper) + len(dom.lower) == levels
        calls.clear()
        assert verify_bijectivity(dom).ok
        assert len(calls) == 1
        s = dom.lower[2]
        dom.lower[2] = dataclasses.replace(s, x_lo=s.x_lo + Fraction(1, 100))
        calls.clear()
        assert not verify_bijectivity(dom).ok
        assert calls == [calls[0], calls[0]]  # the y sides, then the x sides


def test_bijectivity_reports_a_near_exceptional_gap(monkeypatch):
    # the generation-3 pair with lower[2] moved right: 12 thin cells are
    # left uncovered, of measure 1.6678428449669783e-13 by mpmath at 200
    # digits; the four logs of the closed form, added, gave 1.66755e-13.
    # The cells form one run, measured as one box
    b = _near_exceptional_b()
    dom = build_attractor(Params(b - 1, b))
    s = dom.lower[2]
    dom.lower[2] = dataclasses.replace(s, x_lo=s.x_lo + Fraction(1, 100))
    measured = []

    def counted(box):
        measured.append(box)
        return invariant_box_measure(box)

    monkeypatch.setattr(attractor, "invariant_box_measure", counted)
    rep = verify_bijectivity(dom)
    assert not rep.ok
    assert (rep.overlap_cells, rep.uncovered_cells, rep.escaped_cells) == (0, 12, 12)
    assert len(measured) == 1
    assert rep.overlap_measure == 0.0
    assert rep.uncovered_measure == pytest.approx(1.6678428449669783e-13, rel=1e-12)


def test_overlapping_domain_rows_raise():
    # the upper row at -3/5 <= y <= -1/3 reaches x = 4, past the lower
    # row's start x = 3 above y = -1/2
    dom = build_attractor(Z)
    dom.upper[0] = dataclasses.replace(dom.upper[0], x_hi=Fraction(4))
    with pytest.raises(ConstructionError, match="domain boxes overlap"):
        verify_bijectivity(dom)


BIG = 1009  # past the square-factor sieve: sqrt(2 * BIG**2) stays unreduced


@st.composite
def bound_lists(draw):
    """Fractions, surds of Q(sqrt 2), the sentinels and fractions past the
    float range, each possibly followed by an equal value in a new object
    (a surd in its d = 2 * BIG**2 form) and by the value plus 10**-30,
    whose float ties with it."""
    ints = st.integers(-30, 30)
    atoms = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
        st.builds(lambda p, q, r: Surd.make(p, q, r, 2), ints, ints.filter(bool), st.integers(1, 30)),
        st.sampled_from([NEG_INF, POS_INF, Fraction(10**400), Fraction(-(10**400), 3)]),
    )
    out = []
    for v in draw(st.lists(atoms, max_size=14)):
        out.append(v)
        if v is NEG_INF or v is POS_INF:
            continue
        if draw(st.booleans()):
            if isinstance(v, Surd):
                out.append(Surd.make(BIG * v.p, v.q, BIG * v.r, 2 * BIG * BIG))
            else:
                out.append(Fraction(v.numerator, v.denominator))
        if draw(st.booleans()):
            out.append(v + Fraction(1, 10**30))
    return draw(st.permutations(out))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bound_lists())
def test_exact_sorted_is_the_exact_sort(items):
    got = _exact_sorted(items, _fkey, cmp_bound)
    want = sorted(items, key=functools.cmp_to_key(cmp_bound))
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


def test_boundary_absorption_strong_cycles():
    # both-strong parameters: every boundary segment is eventually interior
    for pair in [("-4/5", "2/5"), ("-7/10", "4/5")]:
        p = Params.make(*pair)
        dom = build_attractor(p)
        pts = []
        for s in dom.upper + dom.lower:
            lo = -8.0 if s.x_lo is NEG_INF else as_float(s.x_lo)
            hi = 8.0 if s.x_hi is POS_INF else as_float(s.x_hi)
            if hi > lo:
                pts.append(((lo + hi) / 2, as_float(s.y)))
        xs = np.array([q[0] for q in pts])
        ys = np.array([q[1] for q in pts])
        interior = np.zeros(len(xs), dtype=bool)
        for _ in range(200):
            xs, ys = F_step_array(xs, ys, p)
            ok = np.isfinite(xs) & np.isfinite(ys)
            interior |= ok & dom.contains_array(xs, ys, tol=-1e-7)
        assert interior.all()


def test_compare_with_oracle_zagier():
    dom = build_attractor(Z)
    cloud = sample_attractor(Z, burn_in=200, n_points=30_000, seed=5)
    rep = compare_with_oracle(dom, cloud)
    assert rep.inside_fraction >= 0.999
    assert rep.boundary_gap <= 0.05


def test_compare_with_oracle_m11_exact():
    p = Params.make("-1", "1")
    dom = build_attractor(p)
    cloud = sample_attractor(p, burn_in=200, n_points=20_000, seed=6)
    rep = compare_with_oracle(dom, cloud)
    assert rep.inside_fraction == 1.0


def test_compare_with_oracle_negative_control():
    dom = build_attractor(Z)
    shrunk_lower = [
        Step(s.x_lo, s.x_hi, s.y - Fraction(1, 2), s.origin) for s in dom.lower
    ]
    shrunk_upper = [
        Step(s.x_lo, s.x_hi, s.y + Fraction(1, 2), s.origin) for s in dom.upper
    ]
    bad = RectDomain(dom.params, shrunk_upper, shrunk_lower, dom.x_a, dom.x_b)
    cloud = sample_attractor(Z, burn_in=200, n_points=20_000, seed=7)
    rep = compare_with_oracle(bad, cloud)
    assert rep.inside_fraction < 0.95


def test_compare_with_oracle_empty_cloud_rejected():
    dom = build_attractor(Z)
    from abcf.natext import Cloud

    with pytest.raises(ValueError):
        compare_with_oracle(dom, Cloud(np.empty((0, 2))))


def test_reduction_scan_zagier():
    dom = build_attractor(Z)
    rep = reduction_scan(dom, grid=60, cap=5_000)
    assert rep.coverage == 1.0
    assert rep.max_time < 200


def test_reduction_scan_empty_grid():
    dom = build_attractor(Z)
    rep = reduction_scan(dom, grid=0)
    assert rep.n_points == 0 and np.isnan(rep.coverage)


def test_float_params_rejected():
    with pytest.raises(ConstructionError) as info:
        build_attractor(Params.make(-0.8, 0.4))
    assert info.value.failed_endpoint is None


def test_finiteness_error_names_the_endpoint_and_frees_the_orbits(monkeypatch):
    # a pair shadowing an exceptional point beyond the cap: the error names
    # the endpoint, and once it is handled the orbits are freed at once,
    # not by a later garbage collection (they are large near the set)
    b = exceptional_b(*parse_plan("m=3;1x2,1x3,1x2,1x2,1x3"), 1e-30).b_mid
    refs = []

    def kept(*args, **kwargs):
        tro = truncated_orbits(*args, **kwargs)
        refs.append(weakref.ref(tro))
        return tro

    monkeypatch.setattr(attractor, "truncated_orbits", kept)
    gc.disable()
    try:
        with pytest.raises(ConstructionError, match="finiteness condition fails at the cap") as info:
            build_attractor(Params(b - 1, b), cap=600)
        assert info.value.failed_endpoint == "a"
        del info
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_json_round_trip_shape():
    dom = build_attractor(Z)
    js = dom.to_json()
    assert js["x_a"] == "2" and js["x_b"] == "-1"
    assert all("x_lo" in s and "y_float" in s for s in js["upper"] + js["lower"])
    js2 = build_attractor(Params.make("-1/2", "1/2")).to_json()
    assert js2["x_a"] == "(1+1*sqrt(5))/2"


def test_corner_bounds_always_hold():
    rng = np.random.default_rng(31)
    for p in interior_rational_params(rng, 12):
        dom = build_attractor(p)
        assert dom.x_a >= 1 and dom.x_b <= -1


def test_oracle_agreement_random_interior():
    # the 0.05 gap bound needs acceptance-scale clouds: low-density
    # boundary steps (large |x - y|) are underwitnessed by small samples
    rng = np.random.default_rng(37)
    for p in interior_rational_params(rng, 10):
        dom = build_attractor(p)
        cloud = sample_attractor(p, burn_in=250, n_points=100_000, seed=8)
        rep = compare_with_oracle(dom, cloud)
        assert rep.inside_fraction >= 0.999, (p, rep.inside_fraction)
        assert rep.boundary_gap <= 0.05, (p, rep.boundary_gap)


def test_boundary_line_rationals():
    # rational pairs on b - a = 1 stay finite (only the exceptional
    # Cantor set on that line fails); cycles lengthen, corners go surd
    for num, den in [(3, 8), (7, 19)]:
        b = Fraction(num, den)
        dom = build_attractor(Params(b - 1, b))
        assert len(dom.lower) > 10
        from abcf.scalars import Surd

        assert isinstance(dom.x_a, Surd)
        assert verify_bijectivity(dom).ok


def test_b_above_one_construction():
    # b >= 1 with a > -1: strong a-cycle, weak b-cycle sharing level 0
    p = Params.make("-1/5", "1")
    dom = build_attractor(p)
    assert verify_bijectivity(dom).ok
    assert verify_connectivity(dom)["ok"]


def test_hyperbola_boundary_pairs():
    # -a*b = 1 (Sb = a exactly): coupling reroutes keep everything exact
    for a, b in [(Fraction(-5, 6), Fraction(6, 5)), (Fraction(-1, 2), Fraction(2))]:
        dom = build_attractor(Params(a, b))
        assert (dom.x_a, dom.x_b) == (1, -1)
        assert verify_bijectivity(dom).ok


def test_reduction_scan_weak_cycle_pair():
    # the classical nearest-integer pair is only weak-cycle; the scan must
    # still run (full coverage is not guaranteed there, only measured)
    dom = build_attractor(Params.make("-1/2", "1/2"))
    rep = reduction_scan(dom, grid=40, cap=2_000)
    assert 0.99 <= rep.coverage <= 1.0


@pytest.mark.parametrize(
    "pair",
    [
        ("-1", "1"),
        ("-1/2", "1/2"),
        ("-7/10", "4/5"),
        ("-4/5", "2/5"),
        ("-3/4", "4/7"),
        ("-6/5", "1/3"),
        ("-5/6", "3/5"),
        ("-16/17", "1/17"),
        ("-30/31", "1/31"),
        ("-1", "0"),
        ("0", "3/2"),
    ],
)
def test_float_kernel_matches_exact_boxes(pair):
    # contains_array's staircase search and the box list of region() are two
    # descriptions of one set; points near a box side are left out, where
    # the float kernel may round either way
    dom = build_attractor(Params.make(*pair))
    region = dom.region()
    rng = np.random.default_rng(41)
    xs, ys = rng.uniform(-6, 6, (2, 600))
    sides = [as_float(v) for bx in region.boxes for v in (bx.x_lo, bx.x_hi, bx.y_lo, bx.y_hi)]
    sides = np.array([v for v in sides if math.isfinite(v)])

    def near_side(v):
        return (np.abs(v[:, None] - sides) <= 1e-8).any(axis=1)

    keep = ~(near_side(xs) | near_side(ys))
    xs, ys = xs[keep], ys[keep]
    assert len(xs) > 500
    want = [region.contains(x, y) for x, y in zip(xs, ys)]
    assert dom.contains_array(xs, ys, 0).tolist() == want
    assert 0 < sum(want) < len(want)
