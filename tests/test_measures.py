import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from abcf import measures
from abcf.attractor import build_attractor
from abcf.cf import digit_float, f_hat_step
from abcf.measures import (
    _box_uniforms,
    _digit_array,
    _li2,
    _mu_terms,
    F_hat_array,
    birkhoff_average,
    entropy_closed,
    entropy_rokhlin,
    hat_domain,
    invariance_check,
    measures_report,
    mu_mass,
    norm_const,
    nu_mass,
    rokhlin_integral,
    sample_nu,
)
from abcf.natext import Box
from abcf.params import ParamError, Params
from abcf.scalars import as_float


SIMPLE = Params.make("-7/10", "4/5")
M11 = Params.make("-1", "1")


# -- the densities, point by point: the quadrature oracle's integrands -----


def nu_density(x: float, y: float, params: Params) -> float:
    if not hat_domain(params).contains(x, y, 1e-12):
        return 0.0
    return 1.0 / (norm_const(params) * (1.0 + x * y) ** 2)


def mu_density(x: float, params: Params) -> float:
    val = 0.0
    for lo, hi, c in _mu_terms(params):
        if lo <= x <= hi:
            val += 1.0 / abs(x + c)
    return val / norm_const(params)


def mu_cdf(x: float, params: Params) -> float:
    """Exact piecewise-log distribution function of the x-marginal."""
    return measures._mu_cdf(x, _mu_terms(params), norm_const(params))


def simple_case_applies(params: Params) -> bool:
    """1 <= -1/a <= b+1 and a-1 <= -1/b <= -1 (false when a or b is 0): the
    pairs whose strip has the four boxes of the closed form log[(1+b)(1-a)]."""
    if params.is_a0 or params.is_b0:
        return False
    a, b = params.a, params.b
    sa = -1 / a
    sb = -1 / b
    return (
        params.cmp_num(sa, 1) >= 0
        and params.cmp_num(sa, b + 1) <= 0
        and params.cmp_num(sb, a - 1) >= 0
        and params.cmp_num(sb, -1) <= 0
    )


def _small_pairs(max_den: int) -> list[Params]:
    """Every pair of P with a, b != 0 whose entries have denominators <= max_den."""
    vals = sorted({Fraction(n, d) for d in range(1, max_den + 1) for n in range(1, max_den * d + 1)})
    out = []
    for a in vals:
        for b in vals:
            try:
                out.append(Params(-a, b))
            except ParamError:
                continue
    return out


SMALL_PAIRS = _small_pairs(6)


def test_rokhlin_integral_on_every_small_pair():
    assert len(SMALL_PAIRS) == 531
    for p in SMALL_PAIRS:
        assert abs(rokhlin_integral(p) + math.pi**2 / 6) <= 1e-12, (p.a, p.b)


def test_norm_const_is_the_closed_form_on_simple_pairs():
    assert simple_case_applies(SIMPLE)
    assert simple_case_applies(M11)  # boundary equalities allowed
    assert not simple_case_applies(Params.make("-4/5", "2/5"))
    assert not simple_case_applies(Params.make("0", "3/2"))
    assert not simple_case_applies(Params.make("-1", "0"))
    simple = [p for p in SMALL_PAIRS if simple_case_applies(p)]
    assert len(simple) == 37
    for p in simple:
        closed = math.log((1 + as_float(p.b)) * (1 - as_float(p.a)))
        assert abs(norm_const(p) - closed) <= 1e-12, (p.a, p.b)
    # off the simple case the strip's measure is not the closed form 0.9243
    assert abs(norm_const(Params.make("-4/5", "2/5")) - 1.0296) < 1e-4


def test_hat_domain_boxes():
    dom = hat_domain(SIMPLE)
    got = sorted((b.x_lo, b.x_hi, b.y_lo, b.y_hi) for b in dom.boxes)
    want = sorted(
        [
            (-0.7, -0.25, -1.0, 0.0),
            (-0.25, 0.3, -0.5, 0.0),
            (-0.2, 10 / 7 - 1, 0.0, 0.5),
            (10 / 7 - 1, 0.8, 0.0, 1.0),
        ]
    )
    assert np.allclose(got, want)


def test_F_hat_step_example():
    # x = 1/2: -1/x = -2 < a, digit -2, fhat(x) = 0, y' = -1/(y+2)
    nx, ny = np.array([0.5]), np.array([0.0])
    rx, ry = F_hat_array(nx, ny, SIMPLE)
    assert abs(rx[0] - 0.0) < 1e-15
    assert abs(ry[0] + 0.5) < 1e-15


def test_F_hat_pushforward_stays_inside():
    dom = hat_domain(SIMPLE)
    pts = sample_nu(SIMPLE, 100_000, seed=3)
    xs, ys = F_hat_array(pts[:, 0], pts[:, 1], SIMPLE)
    ok = np.array([dom.contains(x, y, tol=1e-9) for x, y in zip(xs, ys)])
    assert ok.mean() > 0.99999


def _sample_nu_reference(params, n, seed):
    """The sampler as first written: rng.choice picks, then one boolean
    mask per box; sample_nu must return its bits."""
    dom = hat_domain(params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    areas = np.array([(b.x_hi - b.x_lo) * (b.y_hi - b.y_lo) for b in dom.boxes])
    weights = areas / areas.sum()
    dens_max = max(
        1.0 / (1.0 + xc * yc) ** 2
        for b in dom.boxes
        for xc in (b.x_lo, b.x_hi)
        for yc in (b.y_lo, b.y_hi)
    )
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        m = max(4096, 2 * (n - filled))
        picks = rng.choice(len(dom.boxes), size=m, p=weights)
        xs = np.empty(m)
        ys = np.empty(m)
        for i, b in enumerate(dom.boxes):
            sel = picks == i
            k = int(sel.sum())
            xs[sel] = rng.uniform(b.x_lo, b.x_hi, k)
            ys[sel] = rng.uniform(b.y_lo, b.y_hi, k)
        dens = 1.0 / (1.0 + xs * ys) ** 2
        accept = rng.uniform(0, 1, m) * dens_max <= dens
        take = min(n - filled, int(accept.sum()))
        out[filled : filled + take, 0] = xs[accept][:take]
        out[filled : filled + take, 1] = ys[accept][:take]
        filled += take
    return out


SAMPLER_PAIRS = [SIMPLE, M11, Params.make("-3/5", "3/4"), Params.make("-1", "1/2")]


@pytest.mark.parametrize("params", SAMPLER_PAIRS, ids=lambda p: f"{p.a},{p.b}")
def test_sample_nu_matches_the_mask_reference(params):
    for n in (1, 4096, 5000):
        for seed in (3, 20):
            want = _sample_nu_reference(params, n, seed)
            assert sample_nu(params, n, seed).tobytes() == want.tobytes()


def test_sample_nu_second_round_matches_the_reference():
    # (-1, 1/2) accepts 49.4 % of its candidates, so 2e6 candidates leave
    # the 1e6 points short and the loop draws a second round
    p = Params.make("-1", "1/2")
    assert sample_nu(p, 1_000_000, 7).tobytes() == _sample_nu_reference(p, 1_000_000, 7).tobytes()


def test_invariance_check_is_pinned():
    # the KS statistic as the one-call-per-grid-point version computed it
    pinned = [
        (("-7/10", "4/5"), 4, 0.00748016934668938),
        (("-1", "1/2"), 9, 0.004491636640808927),
        (("-3/5", "3/4"), 2, 0.006415995186359158),
    ]
    for ab, seed, want in pinned:
        assert invariance_check(Params.make(*ab), 20_000, seed) == want


def test_nu_mass_closed_form_and_quadrature():
    for p in (SIMPLE, M11):
        assert abs(nu_mass(p) - 1) < 1e-12
    # cross-check the closed form with 2D quadrature on one box
    dom = hat_domain(SIMPLE)
    b = dom.boxes[0]
    num, _ = dblquad(
        lambda y, x: 1.0 / (1.0 + x * y) ** 2, b.x_lo, b.x_hi, b.y_lo, b.y_hi
    )
    from abcf.measures import _box_nu_integral

    assert abs(num - _box_nu_integral(b)) < 1e-9


def test_mu_mass():
    for p in (SIMPLE, M11):
        assert abs(mu_mass(p) - 1) < 1e-8


def test_mu_mass_checks_the_marginal_terms(monkeypatch):
    # one wrong corner in the marginal's terms; K, the strip's box measure,
    # does not read them
    real = measures._gauss_domain

    def corrupted(params):
        dom, ((lo, hi, c), *terms), K = real(params)
        return dom, ((lo, hi, 1.1 * c), *terms), K

    monkeypatch.setattr(measures, "_gauss_domain", corrupted)
    assert abs(mu_mass(SIMPLE) - 1) > 1e-3


@pytest.mark.parametrize(
    "ab, R",
    [
        (("-4/5", "2/5"), Fraction(14, 5)),
        (("-6/5", "1/3"), Fraction(16, 5)),
        (("-5/6", "3/5"), Fraction(44, 15)),
    ],
)
def test_norm_const_is_log_R_within_an_ulp(ab, R):
    # K = log R, R the product of the strip boxes' cross-ratios
    C = norm_const(Params.make(*ab))
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(C) - mpmath.log(mpmath.mpf(R.numerator) / R.denominator)) <= math.ulp(C)


def test_mu_is_y_marginal_of_nu():
    dom = hat_domain(SIMPLE)
    a, b = as_float(SIMPLE.a), as_float(SIMPLE.b)
    for x in np.linspace(a + 1e-3, b - 1e-3, 50):
        total = 0.0
        for bx in dom.boxes:
            if bx.x_lo <= x <= bx.x_hi:
                v, _ = quad(lambda y: nu_density(x, y, SIMPLE), bx.y_lo, bx.y_hi)
                total += v
        assert abs(total - mu_density(x, SIMPLE)) < 1e-7


def test_mu_cdf_matches_quadrature():
    for x in [-0.5, -0.1, 0.2, 0.6]:
        v, _ = quad(lambda t: mu_density(t, SIMPLE), as_float(SIMPLE.a), x, limit=200)
        assert abs(v - mu_cdf(x, SIMPLE)) < 1e-8


def test_invariance_ks():
    ks = invariance_check(SIMPLE, 200_000, seed=7)
    assert ks <= 6e-3
    ks = invariance_check(M11, 200_000, seed=8)
    assert ks <= 6e-3


def test_invariance_empty():
    assert math.isnan(invariance_check(SIMPLE, 0, seed=1))


def test_entropy_closed_values():
    assert abs(entropy_closed(M11) - math.pi**2 / (3 * math.log(4))) < 1e-12
    assert abs(entropy_closed(M11) - 2.37313822083125) < 1e-8
    assert abs(entropy_closed(SIMPLE) - 2.9415452) < 1e-6


def test_entropy_rokhlin_agreement():
    for p in (SIMPLE, M11, Params.make("-3/4", "9/10"), Params.make("-5/6", "5/6")):
        assert simple_case_applies(p)
        assert abs(entropy_rokhlin(p) - entropy_closed(p)) <= 1e-5


def test_rokhlin_integral_constant():
    rng = np.random.default_rng(11)
    found = 0
    while found < 5:
        a = Fraction(-int(rng.integers(60, 100)), 100)
        b = Fraction(int(rng.integers(60, 100)), 100)
        try:
            p = Params(a, b)
        except Exception:
            continue
        if not simple_case_applies(p):
            continue
        assert abs(rokhlin_integral(p) + math.pi**2 / 6) <= 1e-6
        found += 1


#: simple-case pairs on which the closed-form entropy integral is checked
ROKHLIN_PAIRS = [SIMPLE, M11, Params.make("-3/5", "3/4"), Params.make("-3/4", "9/10"),
                 Params.make("-5/6", "5/6"), Params.make("-1", "1/2")]


def test_li2_matches_mpmath():
    grid = np.concatenate([np.linspace(-10.0, 1.0, 441), [-1.0, -0.0, 0.5, 1.0, 1e-9, -1e-9]])
    for t in grid:
        with mpmath.workdps(30):
            want = float(mpmath.polylog(2, mpmath.mpf(float(t))))
        assert abs(_li2(float(t)) - want) <= 1e-15, t
    assert _li2(1.0) == math.pi**2 / 6 and _li2(0.0) == 0.0


def _quad_log_weight(lo, hi, c, tol=1e-12):
    """int_lo^hi log|x| / |x + c| dx by adaptive quadrature, the log
    singularity at 0 split off (the integrator the closed form replaced)."""
    w = lambda x: 1.0 / abs(x + c)  # noqa: E731
    if hi <= lo:
        return 0.0
    if lo < 0 < hi:
        return _quad_log_weight(lo, 0.0, c, tol) + _quad_log_weight(0.0, hi, c, tol)
    e = max(abs(lo), abs(hi))
    if min(abs(lo), abs(hi)) > 0:
        return quad(lambda x: math.log(abs(x)) * w(x), lo, hi, epsabs=tol, epsrel=tol, limit=200)[0]
    # one endpoint at 0: subtract w(0) log|x|, whose integral is analytic
    w0 = w(0.0)
    g = lambda x: (w(x) - w0) * math.log(abs(x)) if x != 0 else 0.0  # noqa: E731
    return quad(g, lo, hi, epsabs=tol, epsrel=tol, limit=200)[0] + w0 * e * (math.log(e) - 1.0)


@pytest.mark.parametrize("p", ROKHLIN_PAIRS, ids=lambda p: f"{p.a},{p.b}")
def test_rokhlin_integral_matches_quadrature(p):
    want = sum(_quad_log_weight(lo, hi, c) for lo, hi, c in _mu_terms(p))
    assert abs(rokhlin_integral(p) - want) <= 1e-12


@pytest.mark.parametrize("p", ROKHLIN_PAIRS, ids=lambda p: f"{p.a},{p.b}")
def test_rokhlin_integral_is_minus_zeta2(p):
    assert abs(rokhlin_integral(p) + math.pi**2 / 6) <= 1e-12
    assert abs(mu_mass(p) - 1) <= 1e-12


def test_coordinate_change_conjugacy():
    # F-hat equals the first return of F to {a <= y < b} conjugated by
    # (x, y) -> (y, -1/x), checked on attractor points
    p = SIMPLE
    dom = build_attractor(p)
    rng = np.random.default_rng(13)
    from abcf.natext import F_step_array

    n = 10_000
    a, b = as_float(p.a), as_float(p.b)
    xs = rng.uniform(-6, 6, 8 * n)
    ys = rng.uniform(a, b - 1e-9, 8 * n)
    # the return time scales like 1/|y|, so keep y away from 0
    keep = dom.contains_array(xs, ys, tol=0) & (np.abs(xs) > 1e-3) & (np.abs(ys) > 1e-2)
    xs, ys = xs[keep][:n], ys[keep][:n]
    hx, hy = ys.copy(), -1.0 / xs  # hat coordinates
    fx, fy = F_hat_array(hx, hy, p)
    # first return of F to the strip
    cx, cy = xs.copy(), ys.copy()
    returned = np.zeros(len(cx), dtype=bool)
    outx, outy = np.empty_like(cx), np.empty_like(cy)
    for _ in range(200):
        cx, cy = F_step_array(cx, cy, p)
        inside = (~returned) & (cy >= a) & (cy < b)
        outx[inside], outy[inside] = cx[inside], cy[inside]
        returned |= inside
        if returned.all():
            break
    assert returned.all()
    exp_x, exp_y = outy, -1.0 / outx
    assert np.allclose(fx, exp_x, atol=1e-7)
    assert np.allclose(fy, exp_y, atol=1e-7)


def test_birkhoff_sanity():
    p = SIMPLE

    def obs1(x):
        return x

    def obs2(x):
        return np.cos(x)

    i1, _ = quad(lambda x: x * mu_density(x, p), as_float(p.a), as_float(p.b), limit=200)
    i2, _ = quad(
        lambda x: math.cos(x) * mu_density(x, p), as_float(p.a), as_float(p.b), limit=200
    )
    a1 = birkhoff_average(p, obs1, 1_000_000, seed=5)
    a2 = birkhoff_average(p, obs2, 1_000_000, seed=5)
    assert abs(a1 - i1) < 1e-2
    assert abs(a2 - i2) < 1e-2


def test_birkhoff_average_orbit_is_pinned():
    # the plain-float loop follows the digit_ab orbit bit for bit
    pinned = [
        (("-7/10", "4/5"), 0.9222183216587382),
        (("-1/2", "1/2"), 0.9595291503483939),
        (("-1", "0"), 0.6225920131929893),
        ((-0.7, 0.8), 0.9222183216587382),
    ]
    for ab, want in pinned:
        assert birkhoff_average(Params.make(*ab), np.cos, 50_000, seed=3) == want


def test_birkhoff_average_leaves_a_float_cycle():
    # seed 73 on (-7/10, 4/5) enters a period-8 float cycle through
    # x ~ 4.8e-7 at step 737,468; without a restart -2 log|x| averages 4.12
    avg = birkhoff_average(SIMPLE, lambda xs: -2.0 * np.log(np.abs(xs)), 800_000, seed=73)
    assert abs(avg - entropy_closed(SIMPLE)) < 1e-2


def test_birkhoff_average_surd_pair():
    avg = birkhoff_average(Params.make("-1/2", "golden"), np.cos, 20_000, seed=3)
    assert math.isfinite(avg) and 0.0 < avg <= 1.0


@pytest.mark.parametrize("ab", [("-1", "0"), ("0", "1"), ("0", "3/2")], ids=",".join)
def test_infinite_measure_rejected(ab):
    with pytest.raises(ValueError, match="infinite"):
        hat_domain(Params.make(*ab))


#: pairs off the simple case, whose strips have 5, 4 and 19 boxes; the
#: last is the boundary-line pair (1/k - 1, 1/k) with k = 17
GENERAL_PAIRS = [Params.make("-4/5", "2/5"), Params.make("-1/2", "1/2"), Params.make("-16/17", "1/17")]


@pytest.mark.parametrize("p", GENERAL_PAIRS, ids=lambda p: f"{p.a},{p.b}")
def test_measures_off_the_simple_case(p):
    assert not simple_case_applies(p)
    assert abs(nu_mass(p) - 1) <= 1e-12
    assert abs(mu_mass(p) - 1) <= 1e-12
    assert abs(entropy_rokhlin(p) - entropy_closed(p)) <= 1e-12
    assert invariance_check(p, 1_000_000, seed=7) <= 3e-3


@pytest.mark.parametrize("p", GENERAL_PAIRS, ids=lambda p: f"{p.a},{p.b}")
def test_birkhoff_entropy_off_the_simple_case(p):
    # on seeds 1-12 the largest miss of the three pairs was 0.0066
    avg = birkhoff_average(p, lambda xs: -2.0 * np.log(np.abs(xs)), 1_000_000, seed=1)
    assert abs(avg - entropy_closed(p)) < 1e-2


def test_box_picks_past_the_int8_range():
    # one box per unit of x, so a point's box is the floor of its x
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.5, 1.5, 300)
    weights /= weights.sum()
    boxes = tuple(Box(float(i), i + 0.5, 0.0, 1.0) for i in range(300))
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    xs, _ = _box_uniforms(np.random.default_rng(5), boxes, cdf, 20_000)
    want = np.random.default_rng(5).choice(300, 20_000, p=weights)
    assert np.floor(xs).astype(np.int64).tolist() == want.tolist()


def test_domain_is_built_once_per_pair(monkeypatch):
    calls = []
    real = measures.build_attractor
    monkeypatch.setattr(measures, "build_attractor", lambda p: calls.append(p) or real(p))
    p = Params.make("-5/7", "3/4")  # a pair no other test builds
    measures_report(p, 1000, seed=1)
    for x in np.linspace(-0.7, 0.7, 1000):
        nu_density(float(x), 0.1, p)
    assert len(calls) == 1


def test_F_hat_step_scalar_exact():
    def F_hat_step(p, params):
        """(x, y) -> (fhat(x), -1/(y - digit(-1/x))); the fixed point x = 0
        is returned unchanged (termination convention, measure zero)."""
        x, y = p
        nx, word = f_hat_step(x, params)
        if word.is_identity_psl():
            return (x, y)
        return (nx, -1 / (y + word.a))  # word = T^-n S = (-n -1; 1 0)

    x, y = F_hat_step((Fraction(1, 2), Fraction(0)), SIMPLE)
    assert (x, y) == (0, Fraction(-1, 2))
    # fixed-direction convention at x = 0
    assert F_hat_step((Fraction(0), Fraction(1, 3)), SIMPLE) == (0, Fraction(1, 3))
    with pytest.raises(ValueError):
        F_hat_step((Fraction(9, 10), Fraction(0)), SIMPLE)


def test_digit_array_is_digit_float_of_minus_one_over_x():
    a, b, eps = -0.7, 0.8, SIMPLE.eps
    rng = np.random.default_rng(5)
    cuts = np.concatenate([np.arange(-6, 7) + a, np.arange(-6, 7) + b])
    ys = np.concatenate(
        [rng.uniform(-30, 30, 4000), cuts, cuts - 1e-13, cuts + 1e-13, cuts - 1e-9, cuts + 1e-9]
    )
    xs = -1.0 / ys
    want = [digit_float(-1.0 / x, a, b, eps) for x in xs]
    assert _digit_array(xs, SIMPLE).tolist() == want
    # -1/x just below b lies on b (digit 1), and -1/x - b just below 2
    # snaps to 2 (digit 3)
    xs = -1.0 / np.array([b - 1e-13, 2.8 - 1e-13])
    assert _digit_array(xs, SIMPLE).tolist() == [1, 3]
    assert [digit_float(-1.0 / x, a, b, eps) for x in xs] == [1, 3]
