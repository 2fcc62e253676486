import math
import random
import warnings
from dataclasses import dataclass
from math import log
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcf.measures import F_hat_array
from abcf.mobius import S, T, T_INV
from abcf.natext import (
    Box,
    F_step_array,
    invariant_box_measure,
    map_interval,
    mobius_box_image,
    rho,
    sample_attractor,
    trapping_region,
)
from abcf.params import Params
from abcf.scalars import INF, NEG_INF, POS_INF, ExtReal, Surd, as_float, enclosure


Z = Params.make("-4/5", "2/5")


# -- the exact map, point by point: the reference for the float kernel -----


def F_step(p: tuple[ExtReal, ExtReal], params: Params) -> tuple[ExtReal, ExtReal]:
    """One reduction-map step; rejects diagonal input."""
    x, y = p
    if params.eq(x, y):
        raise ValueError("reduction map is undefined on the diagonal")
    g = rho(y, params)
    return g.apply(x), g.apply(y)


@dataclass
class TrapResult:
    steps: Optional[int]
    final: tuple[ExtReal, ExtReal]


def time_to_trap(
    p: tuple[ExtReal, ExtReal], params: Params, cap: int = 10_000
) -> TrapResult:
    """Least n <= cap with F^n(p) in the trapping region."""
    if cap < 1:
        raise ValueError("cap >= 1")
    theta = trapping_region(params)
    cur = p
    tol = 0.0 if params.exact else params.eps
    for n in range(cap + 1):
        if theta.contains(cur[0], cur[1], tol):
            return TrapResult(n, cur)
        if n == cap:
            break
        cur = F_step(cur, params)
    return TrapResult(None, cur)


def test_rho_examples():
    assert rho(Fraction(-1), Z) is T
    assert rho(Fraction(0), Z) is S
    assert rho(Fraction(2, 5), Z) is T_INV
    assert rho(INF, Z) is T_INV


def rho_by_cmp(y: ExtReal, params: Params, from_below: bool = False):
    """rho without its float filter: each end decided by Params.cmp, which
    is cmp_exact on an exact pair and the eps rule on a float one."""
    if y is INF:
        return T_INV
    ca = params.cmp(y, params.a)
    if ca < 0 or (ca == 0 and from_below):
        return T
    cb = params.cmp(y, params.b)
    if cb < 0 or (cb == 0 and from_below):
        return S
    return T_INV


_GOLDEN = Surd.make(-1, 1, 2, 5)
#: rational, long-rational (b - a = 1 with b = 3/8 + 3**-200), surd, float
#: and beyond-float-range pairs
RHO_PAIRS = [
    Z,
    Params(Fraction(-5, 8) + Fraction(1, 3**200), Fraction(3, 8) + Fraction(1, 3**200)),
    Params(_GOLDEN - 1, _GOLDEN),
    Params(-0.8, 0.4, eps=1e-6),
    Params(Fraction(-1, 10**400), Fraction(10**400)),
]


@st.composite
def rho_points(draw):
    """A pair and a y beside one of its ends: a rational within 2**-60 of
    it, or 2**-1100 away (so the floats of y and the end tie), the end
    itself, a surd, or a step of eps; also far values, 0 and INF."""
    params = draw(st.sampled_from(RHO_PAIRS))
    end = draw(st.sampled_from([params.a, params.b]))
    k = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["near", "tie", "surd", "far", "zero", "inf"]))
    if kind == "inf":
        return params, INF
    if kind == "zero":
        return params, Fraction(k, 10**draw(st.sampled_from([0, 500])))
    if not params.exact:
        step = draw(st.sampled_from([params.eps / 2, params.eps, 2 * params.eps, 1e-17]))
        y = end + k * step
        return params, Fraction(y) if kind == "far" else y
    if kind == "far":
        return params, end * draw(st.sampled_from([2, 10**100, Fraction(1, 10**100)])) + k
    if kind == "surd":
        return params, end + k * _GOLDEN / 2**70
    lo, hi, den = enclosure(end, 1100)  # a surd end's rational neighbours
    scale = 2**60 if kind == "near" else 2**1100
    near = Fraction(draw(st.sampled_from([lo, hi])), den)
    return params, near + Fraction(k, scale * draw(st.integers(1, 60)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(rho_points(), st.booleans())
def test_rho_is_the_branch_cmp_exact_decides(point, from_below):
    params, y = point
    assert rho(y, params, from_below) is rho_by_cmp(y, params, from_below)


def test_rho_decides_float_ties_exactly():
    # y at 2**-1100 from an end has the end's float: the tie is decided
    # exactly, and from_below only moves the branch at the end itself
    for params in RHO_PAIRS:
        if not params.exact:
            continue
        for end, below, above in ((params.a, T, S), (params.b, S, T_INV)):
            for y, fb, want in (
                (end - Fraction(1, 2**1100), False, below),
                (end + Fraction(1, 2**1100), True, above),
                (end, True, below),
                (end, False, above),
            ):
                assert rho(y, params, fb) is want, (params, y, fb)


def test_F_step_examples():
    assert F_step((Fraction(0), Fraction(-1)), Z) == (1, 0)
    x, y = F_step((Fraction(1, 2), Fraction(0)), Z)
    assert x == -2 and y is INF
    x, y = F_step((INF, Fraction(1)), Z)
    assert x is INF and y == 0


def test_F_step_fixes_infinity_coordinate():
    x, y = F_step((INF, Fraction(1)), Z)
    assert x is INF and y == 0  # T^-1 branch fixes the point at infinity


def test_F_step_rejects_diagonal():
    with pytest.raises(ValueError):
        F_step((Fraction(1, 3), Fraction(1, 3)), Z)


def _upper(theta):
    return [b for b in theta.boxes if b.y_hi is POS_INF]


def _lower(theta):
    return [b for b in theta.boxes if b.y_lo is NEG_INF]


def test_trapping_region_cases():
    theta = trapping_region(Z)  # 0 < b < 1, a > -1
    assert len(_upper(theta)) == 3 and len(_lower(theta)) == 3
    assert as_float(Fraction(5, 3)) in {as_float(b.y_lo) for b in _upper(theta)}
    assert as_float(Fraction(2, 3)) in {as_float(b.y_lo) for b in _upper(theta)}  # min(2/3, 5/4)
    lows = {as_float(b.y_hi) for b in _lower(theta)}
    assert -5.0 in lows and -2.5 in lows  # -1/(a+1) and max(a/(a+1), -1/b)


def test_trapping_region_degenerate_a0():
    theta = trapping_region(Params.make("0", "3/2"))
    assert _upper(theta) == []
    got = {(b.floats()) for b in _lower(theta)}
    want = {
        (-1.0, 0.0, -np.inf, -1.0),
        (0.0, 1.0, -np.inf, 0.0),
        (1.0, np.inf, -np.inf, 1.0),
    }
    assert got == want


def test_trapping_region_m11_matches_theorem_cases():
    theta = trapping_region(Params.make("-1", "1"))
    got = {b.floats() for b in theta.boxes}
    want = {
        (-np.inf, -1.0, 0.0, np.inf),
        (-1.0, 0.0, 1.0, np.inf),
        (0.0, 1.0, -np.inf, -1.0),
        (1.0, np.inf, -np.inf, 0.0),
    }
    assert got == want


def _rational_in(lo: float, hi: float, rng) -> Fraction:
    lo = max(lo, -30.0)
    hi = min(hi, 30.0)
    den = rng.randint(7, 400)
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


@pytest.mark.parametrize(
    "pair",
    [("-4/5", "2/5"), ("-7/10", "4/5"), ("-1", "1"), ("-1", "0"), ("0", "3/2"), ("-6/5", "1/2"), ("-1/2", "1/2")],
)
def test_trap_forward_invariance_exact(pair):
    # zero violations over ~1e5 exact samples of the closed region
    p = Params.make(*pair)
    theta = trapping_region(p)
    rng = random.Random(29)
    checked = 0
    while checked < 15_000:
        bx = rng.choice(theta.boxes)
        x1, x2, y1, y2 = bx.floats()
        x = _rational_in(x1, x2, rng)
        y = _rational_in(y1, y2, rng)
        if x == y or not bx.contains(as_float(x), as_float(y)):
            continue
        if (p.is_a0 or p.is_b0) and y == 0:
            # the y = 0 edge of the one-component regions maps through the
            # pole with no second component to land in (measure zero)
            continue
        fx, fy = F_step((x, y), p)
        assert theta.contains(fx, fy), (pair, x, y, fx, fy)
        checked += 1


def test_time_to_trap():
    p = Params.make("-1", "1")
    theta = trapping_region(p)
    inside = (Fraction(2), Fraction(-1, 2))
    assert theta.contains(*inside)
    assert time_to_trap(inside, p).steps == 0
    # (5, -5) already sits in the trap; F(5,-5) = (6,-4) by the T branch
    assert time_to_trap((Fraction(5), Fraction(-5)), p).steps == 0
    assert F_step((Fraction(5), Fraction(-5)), p) == (6, -4)
    res = time_to_trap((Fraction(-5), Fraction(-11, 2)), p, cap=100)
    assert res.steps == 6  # translate until y >= a, then S


def test_time_to_trap_statistical():
    p = Z
    rng = random.Random(31)
    times = []
    for _ in range(300):
        x = Fraction(rng.randint(-2000, 2000), 97)
        y = Fraction(rng.randint(-2000, 2000), 89)
        if x == y:
            continue
        res = time_to_trap((x, y), p, cap=10_000)
        assert res.steps is not None
        times.append(res.steps)
    assert max(times) < 200


def test_sample_attractor_deterministic_and_trapped():
    cloud1 = sample_attractor(Z, burn_in=200, n_points=4000, seed=42)
    cloud2 = sample_attractor(Z, burn_in=200, n_points=4000, seed=42)
    assert np.array_equal(cloud1.points, cloud2.points)
    theta = trapping_region(Z)
    for x, y in cloud1.points[:500]:
        assert theta.contains(x, y, tol=1e-9)


def _kernel(x: float, y: float, p: Params) -> tuple[float, float]:
    nx, ny = F_step_array(np.array([x]), np.array([y]), p)
    return float(nx[0]), float(ny[0])


def _same_bits(u: tuple[float, ...], v: tuple[float, ...]) -> bool:
    return np.array(u).tobytes() == np.array(v).tobytes()


def test_F_step_array_matches_the_scalar_rule_at_the_cuts():
    # with eps = 0 the scalar rho compares floats without snapping, which
    # is the kernel's rule: y == a takes S, y == b and up takes T^-1
    a, b = as_float(Z.a), as_float(Z.b)
    unsnapped = Params.make("-4/5", "2/5", eps=0.0)
    ys = [a, b, -3.5, 0.25, 7.0]
    ys += [math.nextafter(c, t) for c in (a, b) for t in (-math.inf, math.inf)]
    for y in ys:
        for x in (-2.5, 0.3, 11.0):
            assert _same_bits(_kernel(x, y, Z), F_step((x, y), unsnapped)), (x, y)
    assert rho(a, unsnapped) is S and rho(b, unsnapped) is T_INV
    assert rho(math.nextafter(a, -math.inf), unsnapped) is T
    assert rho(math.nextafter(b, -math.inf), unsnapped) is S


def test_F_step_array_at_zero_infinity_and_nan():
    inf, nan = math.inf, math.nan
    cases = [
        ((1.0, inf), (0.0, inf)),  # T^-1
        ((1.0, -inf), (2.0, -inf)),  # T
        ((inf, 5.0), (inf, 4.0)),
        ((-inf, -5.0), (-inf, -4.0)),
        ((0.0, 0.25), (-inf, -4.0)),  # S sends a signed zero to an infinity
        ((-0.0, 0.25), (inf, -4.0)),
        ((inf, 0.25), (-0.0, -4.0)),
        ((-inf, 0.25), (0.0, -4.0)),
        ((3.0, 0.0), (-1.0 / 3.0, -inf)),
        ((3.0, nan), (2.0, nan)),  # a NaN y takes T^-1
    ]
    for p, want in cases:
        got = _kernel(*p, Z)
        assert _same_bits(got, want), (p, got, want)


def _F_step_array_reference(xs, ys, params):
    """The kernel as first written: a bool->float shift, then S by two
    masked copies; F_step_array must return its bits."""
    a, b = as_float(params.a), as_float(params.b)
    shift = (ys < a).astype(float) - ~(ys < b)
    mid = shift == 0
    nx, ny = xs + shift, ys + shift
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(nx, -1.0 / xs, where=mid)
        np.copyto(ny, -1.0 / ys, where=mid)
    return nx, ny


KERNEL_PAIRS = [
    Z,
    Params.make("-1/2", "golden"),
    Params.make("0", "3/2"),
    Params.make("-2", "0"),
    Params.make("-1", "1"),
    Params.make("-16/17", "1/17"),
]


def _edge_values(p: Params) -> list[float]:
    """+-0, +-inf, NaN, a, b and the float neighbours of each."""
    inf = math.inf
    vals = [0.0, -0.0, inf, -inf, math.nan, as_float(p.a), as_float(p.b)]
    return vals + [math.nextafter(v, t) for v in vals[:4] + vals[5:] for t in (-inf, inf)]


def _same_step(xs: np.ndarray, ys: np.ndarray, p: Params) -> bool:
    got = F_step_array(xs.copy(), ys.copy(), p)  # the step overwrites its inputs
    with np.errstate(over="ignore"):  # -1/x of a subnormal x is an infinity
        want = _F_step_array_reference(xs, ys, p)
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_kernels_take_a_subnormal_x_without_warnings():
    # -1/x of the least subnormal overflows to an infinity, as a division by
    # +-0 does; neither the reduction map nor the Gauss map warns of it
    tiny = math.nextafter(0.0, 1.0)
    xs, ys = np.array([tiny, -tiny, 0.0]), np.array([0.1, 0.1, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nx, _ = F_step_array(xs.copy(), ys.copy(), Z)
        hx, _ = F_hat_array(xs, ys, Z)
    assert nx.tolist() == [-math.inf, math.inf, -math.inf]
    assert hx[0] == -math.inf and hx[1] == math.inf


def test_F_step_array_matches_the_masked_copy_kernel():
    # the S points are gathered by index, so only arrays mixing the three
    # branches exercise the gather: every pair of edge values, then random
    # mixes of edge values and ordinary points
    rng = np.random.default_rng(16)
    for p in KERNEL_PAIRS:
        edges = np.array(_edge_values(p))
        gx, gy = (g.ravel() for g in np.meshgrid(edges, edges))
        assert _same_step(gx, gy, p), (p.a, p.b)
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            xs, ys = rng.uniform(-6.0, 6.0, (2, n))
            for arr in (xs, ys):
                hit = rng.random(n) < 0.3
                arr[hit] = rng.choice(edges, int(hit.sum()))
            assert _same_step(xs, ys, p), (p.a, p.b, n)


def test_F_step_array_steps_in_place():
    # the image overwrites the arrays passed, with the reference's bits
    for p in KERNEL_PAIRS:
        edges = np.array(_edge_values(p))
        xs, ys = (g.ravel() for g in np.meshgrid(edges, edges))
        with np.errstate(over="ignore"):
            want = _F_step_array_reference(xs, ys, p)
        got = F_step_array(xs, ys, p)
        assert got[0] is xs and got[1] is ys
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (p.a, p.b)


@pytest.mark.parametrize("seed", [3, 20])
def test_clouds_match_the_masked_copy_kernel(monkeypatch, seed):
    import abcf.natext as natext

    new = [sample_attractor(p, 200, 10_000, seed).points for p in KERNEL_PAIRS]
    monkeypatch.setattr(natext, "F_step_array", _F_step_array_reference)
    old = [sample_attractor(p, 200, 10_000, seed).points for p in KERNEL_PAIRS]
    for p, u, v in zip(KERNEL_PAIRS, new, old):
        assert u.tobytes() == v.tobytes(), (p.a, p.b)


def test_sample_attractor_empty():
    assert len(sample_attractor(Z, burn_in=10, n_points=0, seed=1)) == 0


def test_monotone_nesting_of_clouds():
    # longer burn-in clouds stay close to shorter ones (D_{n+1} inside D_n)
    from scipy.spatial import cKDTree

    def delta(k):
        c1 = sample_attractor(Z, burn_in=k, n_points=8000, seed=9)
        c2 = sample_attractor(Z, burn_in=2 * k, n_points=8000, seed=10)
        box = (np.abs(c2.points) <= 6).all(axis=1)
        d, _ = cKDTree(c1.points).query(c2.points[box])
        return float(np.quantile(d, 0.95))

    d10, d80 = delta(10), delta(80)
    assert d80 <= d10 + 0.05
    assert d80 < 0.3


def test_F_preserves_invariant_measure_on_boxes():
    rng = random.Random(37)
    a, b = as_float(Z.a), as_float(Z.b)
    done = 0
    while done < 60:
        # a random rational box within one generator branch, off-diagonal
        kind = rng.choice(["T", "S", "T'"])
        if kind == "T":
            y1 = Fraction(rng.randint(-500, -90), 100)
        elif kind == "S":
            y1 = Fraction(rng.randint(-79, 30), 100)
        else:
            y1 = Fraction(rng.randint(41, 500), 100)
        y2 = y1 + Fraction(rng.randint(1, 20), 100)
        if kind == "S":
            y2 = min(y2, Fraction(2, 5))
        if kind == "T":
            y2 = min(y2, Fraction(-4, 5))
        x1 = Fraction(rng.randint(200, 900), 100)
        x2 = x1 + Fraction(rng.randint(1, 300), 100)
        if not (y2 > y1 and x1 > y2):
            continue
        box = Box(x1, x2, y1, y2)
        g = {"T": T, "S": S, "T'": T_INV}[kind]
        images = mobius_box_image(g, box)
        m0 = invariant_box_measure(box)
        m1 = sum(invariant_box_measure(bx) for bx in images)
        assert abs(m0 - m1) < 1e-6
        done += 1


def test_invariant_box_measure_values():
    from scipy.integrate import dblquad

    one, two = Fraction(1), Fraction(2)
    assert invariant_box_measure(Box(one, two, -one, Fraction(0))) == pytest.approx(log(4 / 3))
    assert invariant_box_measure(Box(one, two, NEG_INF, Fraction(0))) == pytest.approx(log(2))
    # a box above the diagonal, against quadrature of du dw/(w-u)^2
    box = Box(Fraction(-3), Fraction(-1), Fraction(1, 2), two)
    ref, _ = dblquad(lambda w, u: 1 / (w - u) ** 2, -3, -1, 0.5, 2)
    assert ref > 0
    assert invariant_box_measure(box) == pytest.approx(ref, rel=1e-9)
    # a box across the diagonal, or touching it at a corner, has infinite measure
    assert invariant_box_measure(Box(-one, one, Fraction(0), two)) == math.inf
    assert invariant_box_measure(Box(one, two, Fraction(0), one)) == math.inf
    assert invariant_box_measure(Box(one, POS_INF, NEG_INF, Fraction(0))) == math.inf


def _mp(v) -> mpmath.mpf:
    if isinstance(v, Surd):
        return (v.p + v.q * mpmath.sqrt(v.d)) / v.r
    return mpmath.mpf(v.numerator) / v.denominator


@settings(max_examples=300, deadline=None)
@given(
    y2=st.integers(-1000, 1000),
    near=st.integers(10, 1000),
    ex=st.integers(0, 300),
    ey=st.integers(0, 300),
    surd=st.booleans(),
    above=st.booleans(),
    unbounded=st.sampled_from([None, "x", "y"]),
)
def test_invariant_box_measure_of_thin_boxes(y2, near, ex, ey, surd, above, unbounded):
    # a box below the diagonal, x1 - y2 >= 1/10 from it, with widths down
    # to 2^-300 and possibly one side at infinity; swapping the axes puts
    # it above the diagonal with the same measure.  x sides may lie in
    # Q(sqrt 2); mpmath at 250 digits takes the four logs of the closed form
    y2 = Fraction(y2, 100)
    x1 = y2 + Fraction(near, 100) + (Surd.make(0, 1, 1, 2) if surd else 0)
    wx, wy = Fraction(3, 2**ex), Fraction(5, 2**ey)
    x2, y1 = x1 + wx, y2 - wy
    with mpmath.workdps(250):
        X1, X2, Y1, Y2 = (_mp(v) for v in (x1, x2, y1, y2))
        if unbounded == "x":
            x2, ref = POS_INF, mpmath.log((X1 - Y1) / (X1 - Y2))
        elif unbounded == "y":
            y1, ref = NEG_INF, mpmath.log((X2 - Y2) / (X1 - Y2))
        else:
            ref = mpmath.log((X2 - Y2) * (X1 - Y1) / ((X2 - Y1) * (X1 - Y2)))
        ref = float(ref)
    box = Box(y1, y2, x1, x2) if above else Box(x1, x2, y1, y2)
    assert invariant_box_measure(box) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_map_interval_S():
    assert map_interval(S, Fraction(2), POS_INF) == [(Fraction(-1, 2), Fraction(0))]
    assert map_interval(S, NEG_INF, Fraction(-2)) == [(Fraction(0), Fraction(1, 2))]
    # pole interior: splits
    parts = map_interval(S, Fraction(-1), Fraction(1))
    assert parts == [(Fraction(1), POS_INF), (NEG_INF, Fraction(-1))]


def test_rho_consistency_with_F():
    rng = random.Random(41)
    for _ in range(200):
        x = Fraction(rng.randint(-400, 400), 37)
        y = Fraction(rng.randint(-400, 400), 41)
        if x == y:
            continue
        g = rho(y, Z)
        assert F_step((x, y), Z) == (g.apply(x), g.apply(y))


def test_trapping_region_b_ge_1_case():
    theta = trapping_region(Params.make("-1/2", "3/2"))
    got = sorted(b.floats() for b in _upper(theta))
    assert got == [(-np.inf, -1.0, 0.5, np.inf), (-1.0, 0.0, 2.0, np.inf)]


def test_time_to_trap_failure_carries_final():
    p = Params.make("-4/5", "2/5")
    assert time_to_trap((Fraction(5), Fraction(3)), p, cap=100).steps == 3
    res = time_to_trap((Fraction(5), Fraction(3)), p, cap=2)
    assert res.steps is None
    assert res.final == (Fraction(3), Fraction(1))  # the capped iterate


def test_time_to_trap_decides_exact_points_exactly():
    # the point lies 1e-30 below the box (-oo, -1] x [b - 1, +oo) of the
    # trapping region: outside exactly, although its float is on the edge
    below = (Fraction(-2), Fraction(-3, 5) - Fraction(1, 10**30))
    assert not trapping_region(Z).contains(*below)
    assert time_to_trap(below, Z).steps == 3
    assert time_to_trap((Fraction(-2), Fraction(-3, 5)), Z).steps == 0
