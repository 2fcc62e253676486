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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attractor import build_attractor
from .natext import Box, Region, invariant_box_measure
from .params import Params
from .scalars import POS_INF, as_float


@dataclass(frozen=True)
class GaussDomain:
    """A pair's Gauss-map domain in floats: region, the strip's boxes in
    Gauss-map coordinates, the lower component's (y <= 0) first, each part
    by ascending x; terms, the x-marginal's (lo, hi, c) in the same order,
    each the weight 1/|x + c| on [lo, hi], where x + c has the sign of c;
    and K, the strip boxes' invariant measure, which normalizes the densities."""

    params: Params
    region: Region
    terms: tuple[tuple[float, float, float], ...]
    K: float


def gauss_domain(params: Params) -> GaussDomain:
    """The Gauss-map domain of the attractor's strip.  A ValueError refuses
    a pair whose float corners are not finite or meet the pole 1 + xy = 0
    of the density."""
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
    K = math.fsum(map(invariant_box_measure, strip))
    return GaussDomain(params, Region(tuple(boxes)), tuple(terms), K)


def _box_nu_integral(box: Box) -> float:
    """Closed form of the unnormalized mass of 1/(1+xy)^2 over a box."""
    x1, x2, y1, y2 = box.floats()
    return math.log(
        ((1 + x1 * y1) * (1 + x2 * y2)) / ((1 + x2 * y1) * (1 + x1 * y2))
    )


def nu_mass(g: GaussDomain) -> float:
    return _nu_y_cdf(math.inf, g)


def mu_mass(g: GaussDomain) -> float:
    """The x-marginal's mass over K, the strip's box measure, which does
    not read the marginal's terms: 1 up to rounding."""
    return _mu_cdf(math.inf, g)


def _mu_cdf(x: float, g: GaussDomain) -> float:
    total = 0.0
    for lo, hi, c in g.terms:
        u = min(max(x, lo), hi)
        if u > lo:  # the weight's antiderivative is sign(c) log|x + c|
            total += math.copysign(1.0, c) * (math.log(abs(u + c)) - math.log(abs(lo + c)))
    return total / g.K


def _nu_y_cdf(y: float, g: GaussDomain) -> float:
    total = 0.0
    for b in g.region.boxes:
        yy = min(max(y, b.y_lo), b.y_hi)
        if yy > b.y_lo:
            total += _box_nu_integral(Box(b.x_lo, b.x_hi, b.y_lo, yy))
    return total / g.K


# -- sampling and the invariance statistic --------------------------------


#: the sampler's candidates, and F_hat_array's points, per pass of the
#: vector kernels, so each pass's temporaries stay small and in cache
CHUNK = 1 << 16


def _cursor(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A generator that draws rng's stream from skip draws ahead; rng
    itself does not move."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator.advance(skip))


def _box_uniforms(rng: np.random.Generator, boxes: tuple[Box, ...], cdf: np.ndarray, m: int):
    """m points, each uniform in a box drawn from the distribution cdf, as
    (xs, ys) chunks of at most CHUNK points, in index order.

    The stream is laid out as one random(m) searched in cdf, the picks of
    rng.choice(len(boxes), m, p=...); then the x draws and the y draws of
    box 0's points, then of box 1's, and so on: the k-th point of a box
    takes the k-th draw of its box's x block and of its y block.  rng draws
    the picks a chunk at a time and stops after them.  Each double takes
    one step of the bit generator, so a block that starts s draws later is
    drawn by a cursor, a copy of rng moved s steps ahead, and each chunk
    takes the next draws of every block from its cursor.
    """
    picks = np.empty(m, np.min_scalar_type(len(boxes)))
    counts = np.zeros(len(boxes), np.int64)
    for i in range(0, m, CHUNK):
        p = picks[i : i + CHUNK]
        p[:] = (rng.random(len(p)) >= cdf[:-1, None]).sum(0, dtype=p.dtype)
        counts += np.bincount(p, minlength=len(boxes))
    # a box's x block starts 2 (points of the boxes before it) draws past the
    # picks, and its y block follows
    blocks = [
        (b, _cursor(rng, int(s)), _cursor(rng, int(s + c)))
        for b, s, c in zip(boxes, 2 * (counts.cumsum() - counts), counts)
    ]

    def chunk(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ends = np.bincount(p, minlength=len(boxes)).cumsum()
        order = np.argsort(p, kind="stable")  # each box's indices, ascending
        xs, ys = np.empty(len(p)), np.empty(len(p))
        for (b, x_draws, y_draws), sel in zip(blocks, np.split(order, ends[:-1])):
            xs[sel] = x_draws.uniform(b.x_lo, b.x_hi, len(sel))
            ys[sel] = y_draws.uniform(b.y_lo, b.y_hi, len(sel))
        return xs, ys

    return (chunk(picks[i : i + CHUNK]) for i in range(0, m, CHUNK))


def sample_nu(g: GaussDomain, n: int, seed: int) -> np.ndarray:
    """Rejection-sample the invariant 2D density box by box; a seed fixes
    the output bits.

    A round of m = max(4096, 2 (n - filled)) candidates takes 4m draws of
    the stream: the m picks and 2m box uniforms of _box_uniforms, then m
    acceptance uniforms.  Candidate i is accepted when its acceptance draw
    times the density's maximum is at most its density, and the accepted
    candidates fill the output in index order.  The candidates come CHUNK
    at a time, each chunk's acceptance draws come from a cursor 2m draws
    past the picks, and the walk stops at the n-th accepted point; a round
    that ends short moves rng past its 4m draws.  So the output bits are
    those of drawing each block of a round whole, while the memory is the
    output, m pick bytes and a few arrays of CHUNK floats.
    """
    if n < 0:
        raise ValueError("n_points >= 0")
    dom = g.region
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
    out = np.empty((n, 2), order="F")  # each column contiguous, pushed forward in place
    filled = 0
    while filled < n:
        m = max(4096, 2 * (n - filled))
        candidates = _box_uniforms(rng, dom.boxes, cdf, m)  # rng stands past the picks
        accept = _cursor(rng, 2 * m)
        for xs, ys in candidates:
            dens = 1.0 / (1.0 + xs * ys) ** 2
            take = np.flatnonzero(accept.uniform(0, 1, len(xs)) * dens_max <= dens)[: n - filled]
            out[filled : filled + len(take), 0] = xs[take]
            out[filled : filled + len(take), 1] = ys[take]
            filled += len(take)
            if filled == n:
                return out
        rng.bit_generator.advance(3 * m)
    return out


def _digit_array(us: np.ndarray, params: Params) -> np.ndarray:
    """cf.digit_float of each u, elementwise, by the same rule: the cuts
    d >= -eps, and ceil(d), less 1 where it lies more than eps above d."""
    a, b, eps = params.a_float, params.b_float, params.eps
    with np.errstate(over="ignore", invalid="ignore"):
        below, above = us - a < -eps, us - b >= -eps
        d = np.where(below, us - a, us - b)
        c = np.ceil(d)
        n = c - (c - d > eps) + above
        return np.where(below | above, n, 0).astype(np.int64)


def F_hat_array(xs: np.ndarray, ys: np.ndarray, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """One step of the Gauss-map natural extension, in place: xs and ys are
    overwritten with the image, CHUNK points at a time (u = -1/x, the digit
    and the x != 0 mask first, then y, then x), and returned.  A point with
    x = 0 stays where it is."""
    for i in range(0, len(xs), CHUNK):
        x, y = xs[i : i + CHUNK], ys[i : i + CHUNK]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = -1.0 / x
            n = _digit_array(u, params)
            keep = x != 0.0
            y[:] = np.where(keep, -1.0 / (y - n), y)
            x[:] = np.where(keep, u - n, 0.0)
    return xs, ys


def invariance_check(g: GaussDomain, n_points: int, seed: int) -> float:
    """KS-style sup discrepancy between the one-step pushforward of an
    invariant sample and the exact marginal distribution functions.  The
    sample's columns are pushed forward and sorted in place, so the peak
    memory is the (n, 2) float sample and sample_nu's 2n pick bytes."""
    if n_points == 0:
        return float("nan")
    pts = sample_nu(g, n_points, seed)
    xs, ys = F_hat_array(pts[:, 0], pts[:, 1], g.params)
    return max(_ks(xs, lambda v: _mu_cdf(v, g)), _ks(ys, lambda v: _nu_y_cdf(v, g)))


#: points of the grid on which the KS statistic compares distribution functions
CDF_GRID = 512


def _ks(vals: np.ndarray, cdf: Callable[[float], float]) -> float:
    """Sup distance between the empirical and the given distribution
    function, on CDF_GRID evenly spaced points across the sample.  Sorts
    vals in place, with no copy: invariance_check passes a column of the
    pushed-forward sample, which it does not need again."""
    vals.sort()
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


def rokhlin_integral(g: GaussDomain) -> float:
    """I(a,b) = int log|x| (K mu)(dx), term by term (equals -pi^2/6), left
    to right: builtin sum() compensates float sums since Python 3.12."""
    total = 0.0
    for lo, hi, c in g.terms:
        if hi > lo:
            total += _log_moment(hi, c) - _log_moment(lo, c)
    return total


def entropy_rokhlin(g: GaussDomain) -> float:
    return -2.0 * rokhlin_integral(g) / g.K


def entropy_closed(g: GaussDomain) -> float:
    return math.pi**2 / (3.0 * g.K)


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
    period up to 16 is caught within 32 steps of entering it.

    Each step inlines cf.digit_float's rule on y = -1/x, so the orbit is
    the one digit_float gives, bit for bit: the digit is 0 from
    a - eps to b - eps, and elsewhere c = ceil(d) of d = y - a (or y - b),
    less 1 where c - d > eps, plus 1 from b - eps up; digit_float says why
    that is exact.  The orbit is stored in a float array: a list of Python
    floats would take 4 times the memory (a pointer and a 24-byte float
    per step)."""
    rng = np.random.default_rng(seed)
    a, b, eps = params.a_float, params.b_float, params.eps
    ceil, isfinite, neg_eps = math.ceil, math.isfinite, -eps
    x = rng.uniform(a, b)
    xs = np.empty(n_steps)
    for start in range(0, n_steps, 16):
        mark = x
        for i in range(start, min(start + 16, n_steps)):
            xs[i] = x
            y = -1.0 / x
            d = y - a
            if d < neg_eps:
                c = ceil(d)
                x = y - (c - (c - d > eps))
            else:
                d = y - b
                if d < neg_eps:
                    x = y  # the digit is 0
                else:
                    c = ceil(d)
                    x = y - (1 + c - (c - d > eps))
            if x == 0 or x == mark or not isfinite(x):
                x = rng.uniform(a, b)  # escape or float cycle; restart (measure zero)
    values = observable(xs)
    if len(values):
        return float(np.mean(values))
    with np.errstate(invalid="ignore"):
        return float(np.float64(0) / 0)  # np.mean's nan for no steps, bit for bit, unwarned


def measures_report(params: Params, n_points: int, seed: int) -> dict:
    g = gauss_domain(params)
    return {
        "C": g.K,
        "nu_mass": nu_mass(g),
        "mu_mass": mu_mass(g),
        "h_closed": entropy_closed(g),
        "h_rokhlin": entropy_rokhlin(g),
        "I_ab": rokhlin_integral(g),
        "ks_stat": invariance_check(g, n_points, seed),
    }
