"""Invariant measures and entropy for the Gauss-like first-return map.

The attractor D that build_attractor computes, clipped to the strip
a <= y <= b where the reduction map applies S, is a union of boxes
half-infinite in x: (-oo, X] x [y0, y1] with X <= -1 above the diagonal,
[X, +oo) x [y0, y1] with X >= 1 below it.  In the coordinates
(x, y) -> (y, -1/x) of the first-return map these become [y0, y1] x
[0, -1/X] and [y0, y1] x [-1/X, 0], the invariant measure du dw/(w - u)^2
of D becomes the density 1/(K (1+xy)^2), and its x-marginal is the sum
over boxes of 1/|x - X| on [y0, y1], divided by its mass K.  Abramov's
formula gives the entropy of the one-dimensional map as pi^2/(3 K);
Rokhlin's formula h = -2 int log|x| dmu checks it independently and
integrates term by term in closed form through the dilogarithm.  Where
the strip has the four boxes of the simple case, K = log[(1+b)(1-a)].
When a = 0 or b = 0 a box ends on its own pole and the measure is
infinite.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .attractor import build_attractor
from .cf import digit_float
from .natext import Box, Region, invariant_box_measure
from .params import Params
from .scalars import POS_INF, as_float


@functools.lru_cache(maxsize=64)
def _gauss_domain(params: Params) -> tuple[Region, tuple[tuple[float, float, float], ...], float]:
    """The strip's boxes in Gauss-map coordinates, those of the lower
    component (y <= 0) first, each part by ascending x; the x-marginal's
    terms (y0, y1, -X) in the same order; and K, the invariant measure of
    the strip's boxes in the original coordinates: the terms' mass, up to
    rounding.  A ValueError refuses a pair whose float corners are not
    finite or meet the pole 1 + xy = 0 of the density."""
    if params.is_a0 or params.is_b0:
        raise ValueError("the invariant measure is infinite when a = 0 or b = 0")
    strip = build_attractor(params).region().clip(params.a, params.b).boxes
    boxes, terms = [], []
    for bx in sorted(strip, key=lambda bx: bx.x_hi is not POS_INF):  # keeps each part's order
        below = bx.x_hi is POS_INF
        X = bx.x_lo if below else bx.x_hi
        y0, y1, x, h = as_float(bx.y_lo), as_float(bx.y_hi), as_float(X), as_float(-1 / X)
        if not all(map(math.isfinite, (y0, y1, x))) or min(1 + y0 * h, 1 + y1 * h) <= 0:
            raise ValueError(
                f"({params.a}, {params.b}): a corner of the Gauss-map domain is not "
                "finite or has 1 + xy <= 0 in floats"
            )
        boxes.append(Box(y0, y1, h, 0.0) if below else Box(y0, y1, 0.0, h))
        terms.append((y0, y1, -x))
    return Region(tuple(boxes)), tuple(terms), math.fsum(map(invariant_box_measure, strip))


def norm_const(params: Params) -> float:
    """K, the invariant measure of the attractor's strip: the normalization
    of the invariant densities."""
    return _gauss_domain(params)[2]


def hat_domain(params: Params) -> Region:
    """The domain of the Gauss-map natural extension, with float corners."""
    return _gauss_domain(params)[0]


def _mu_terms(params: Params) -> tuple[tuple[float, float, float], ...]:
    """(lo, hi, c) of the x-marginal's terms: the weight 1/|x + c| on
    [lo, hi], where x + c has the sign of c."""
    return _gauss_domain(params)[1]


def _box_nu_integral(box: Box) -> float:
    """Closed form of the unnormalized mass of 1/(1+xy)^2 over a box."""
    x1, x2, y1, y2 = box.floats()
    return math.log(
        ((1 + x1 * y1) * (1 + x2 * y2)) / ((1 + x2 * y1) * (1 + x1 * y2))
    )


def nu_mass(params: Params) -> float:
    dom = hat_domain(params)
    return sum(_box_nu_integral(b) for b in dom.boxes) / norm_const(params)


def mu_mass(params: Params) -> float:
    """The x-marginal's mass over K, the strip's box measure, which does
    not read the marginal's terms: 1 up to rounding."""
    _, terms, K = _gauss_domain(params)
    return _mu_cdf(math.inf, terms, K)


def _mu_cdf(x: float, terms: tuple, C: float) -> float:
    total = 0.0
    for lo, hi, c in terms:
        u = min(max(x, lo), hi)
        if u > lo:  # the weight's antiderivative is sign(c) log|x + c|
            total += math.copysign(1.0, c) * (math.log(abs(u + c)) - math.log(abs(lo + c)))
    return total / C


def _nu_y_cdf(y: float, boxes: tuple[Box, ...], C: float) -> float:
    total = 0.0
    for b in boxes:
        yy = min(max(y, b.y_lo), b.y_hi)
        if yy > b.y_lo:
            total += _box_nu_integral(Box(b.x_lo, b.x_hi, b.y_lo, yy))
    return total / C


# -- sampling and the invariance statistic --------------------------------


def _box_uniforms(rng: np.random.Generator, boxes: tuple[Box, ...], cdf: np.ndarray, m: int):
    """m points, each uniform in a box drawn from the distribution cdf.

    The stream is that of rng.choice(len(boxes), m, p=...) -- one
    random(m) searched in cdf -- then uniform x and y draws for every point
    of box 0, of box 1, ...; no pass over the m points is made per box.
    """
    picks = (rng.random(m) >= cdf[:-1, None]).sum(0, dtype=np.min_scalar_type(len(boxes)))
    ends = np.bincount(picks, minlength=len(boxes)).cumsum()
    order = np.argsort(picks, kind="stable")  # each box's indices, ascending
    xs, ys = np.empty(m), np.empty(m)
    for b, sel in zip(boxes, np.split(order, ends[:-1])):
        xs[sel] = rng.uniform(b.x_lo, b.x_hi, len(sel))
        ys[sel] = rng.uniform(b.y_lo, b.y_hi, len(sel))
    return xs, ys


def sample_nu(params: Params, n: int, seed: int) -> np.ndarray:
    """Rejection-sample the invariant 2D density box by box: each round
    draws m = max(4096, 2 (n - filled)) candidates by _box_uniforms, then
    uniform(0, 1, m) for acceptance, so a seed fixes the output bits."""
    if n < 0:
        raise ValueError("n_points >= 0")
    dom = hat_domain(params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    areas = np.array([(b.x_hi - b.x_lo) * (b.y_hi - b.y_lo) for b in dom.boxes])
    cdf = (areas / areas.sum()).cumsum()
    cdf /= cdf[-1]
    # the density 1/(1+xy)^2 is monotone along box edges, so its maximum
    # over the closed domain sits at a box corner
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
        xs, ys = _box_uniforms(rng, dom.boxes, cdf, m)
        dens = 1.0 / (1.0 + xs * ys) ** 2
        take = np.flatnonzero(rng.uniform(0, 1, m) * dens_max <= dens)[: n - filled]
        out[filled : filled + len(take), 0] = xs[take]
        out[filled : filled + len(take), 1] = ys[take]
        filled += len(take)
    return out


def _digit_array(xs: np.ndarray, params: Params) -> np.ndarray:
    """cf.digit_float of -1/x, elementwise: the same eps-snapped cuts
    (d >= -eps is abs(d) <= eps or d > 0) and the same snapped floor."""
    a, b, eps = as_float(params.a), as_float(params.b), params.eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ys = -1.0 / xs
        below, above = ys - a < -eps, ys - b >= -eps
        d = np.where(below, ys - a, ys - b)
        r = np.round(d)
        n = np.where(np.abs(d - r) <= eps, r, np.floor(d)) + above
        return np.where(below | above, n, 0).astype(np.int64)


def F_hat_array(xs: np.ndarray, ys: np.ndarray, params: Params) -> tuple[np.ndarray, np.ndarray]:
    n = _digit_array(xs, params)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nx = -1.0 / xs - n
        ny = -1.0 / (ys - n)
    keep = xs != 0.0
    nx[~keep] = 0.0
    ny[~keep] = ys[~keep]
    return nx, ny


def invariance_check(params: Params, n_points: int, seed: int) -> float:
    """KS-style sup discrepancy between the one-step pushforward of an
    invariant sample and the exact marginal distribution functions."""
    if n_points == 0:
        return float("nan")
    pts = sample_nu(params, n_points, seed)
    xs, ys = F_hat_array(pts[:, 0], pts[:, 1], params)
    dom, terms, C = _gauss_domain(params)
    return max(_ks(xs, lambda v: _mu_cdf(v, terms, C)), _ks(ys, lambda v: _nu_y_cdf(v, dom.boxes, C)))


#: points of the grid on which the KS statistic compares distribution functions
CDF_GRID = 512


def _ks(vals: np.ndarray, cdf: Callable[[float], float]) -> float:
    """Sup distance between the empirical and the given distribution
    function, on CDF_GRID evenly spaced points across the sample."""
    vals = np.sort(vals)
    grid = np.linspace(vals[0], vals[-1], CDF_GRID)
    emp = np.searchsorted(vals, grid, side="right") / len(vals)
    return float(np.abs(emp - np.array([cdf(v) for v in grid])).max())


# -- entropy ----------------------------------------------------------------


def _li2(t: float) -> float:
    """The real dilogarithm Li2(t) = sum t^k / k^2 for t <= 1: the series
    on [0, 1/2], reached through the 1/t, t/(t - 1) and 1 - t identities."""
    if t < -1.0:
        return -math.pi**2 / 6 - 0.5 * math.log(-t) ** 2 - _li2(1.0 / t)
    if t < 0.0:
        return -_li2(t / (t - 1.0)) - 0.5 * math.log1p(-t) ** 2
    if t == 1.0:
        return math.pi**2 / 6
    if t > 0.5:
        return math.pi**2 / 6 - math.log(t) * math.log1p(-t) - _li2(1.0 - t)
    # the terms past k = 50 add less than t^50 / 50^2, under an ulp of Li2(t) >= t
    return math.fsum(t**k / (k * k) for k in range(1, 51))


def _log_moment(x: float, c: float) -> float:
    """An antiderivative of log|x| / |x + c| off the pole:
    sign(c) (log|x| log(1 - t) + Li2(t)) with t = -x/c."""
    t = -x / c
    return math.copysign(1.0, c) * ((math.log(abs(x)) if x else 0.0) * math.log1p(-t) + _li2(t))


def rokhlin_integral(params: Params) -> float:
    """I(a,b) = int log|x| (C mu)(dx), term by term (equals -pi^2/6)."""
    terms = _mu_terms(params)
    return sum(_log_moment(hi, c) - _log_moment(lo, c) for lo, hi, c in terms if hi > lo)


def entropy_rokhlin(params: Params) -> float:
    return -2.0 * rokhlin_integral(params) / norm_const(params)


def entropy_closed(params: Params) -> float:
    return math.pi**2 / (3.0 * norm_const(params))


def birkhoff_average(
    params: Params,
    observable: Callable[[np.ndarray], np.ndarray],
    n_steps: int,
    seed: int,
) -> float:
    """Time average of an observable along one first-return orbit from a
    uniform random start in [a, b).

    The orbit restarts from a new uniform start when it escapes (x = 0 or
    not finite) or returns to the value it had at the last step divisible
    by 16: a float orbit that repeats is stuck in a cycle, and one of
    period up to 16 is caught within 32 steps of entering it."""
    rng = np.random.default_rng(seed)
    a, b, eps = as_float(params.a), as_float(params.b), params.eps
    x = rng.uniform(a, b)
    xs = np.empty(n_steps)
    for i in range(n_steps):
        xs[i] = x
        if not i & 15:
            mark = x
        y = -1.0 / x
        x = y - digit_float(y, a, b, eps)
        if x == 0 or x == mark or not math.isfinite(x):
            x = rng.uniform(a, b)  # escape or float cycle; restart (measure zero)
    return float(np.mean(observable(xs)))


def measures_report(params: Params, n_points: int = 1_000_000, seed: int = 7) -> dict:
    return {
        "C": norm_const(params),
        "nu_mass": nu_mass(params),
        "mu_mass": mu_mass(params),
        "h_closed": entropy_closed(params),
        "h_rokhlin": entropy_rokhlin(params),
        "I_ab": rokhlin_integral(params),
        "ks_stat": invariance_check(params, n_points, seed),
    }
