"""The two-dimensional reduction map, its trapping region and a sampling
oracle for the attractor.

The map applies one generator to both coordinates, chosen by the second
coordinate: T below a, S on [a, b), T^-1 from b up (and at infinity).
Every off-diagonal point enters the trapping region in finite time; long
Monte Carlo runs of the map approximate the attractor and serve as an
independent cross-check for the constructed domain.  That float layer
(F_step_array, sample_attractor) imports numpy on first use, so the
exact layer runs without it; F_step_array steps its arrays in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .mobius import Mobius, S, T, T_INV
from .params import Params
from .scalars import (
    NEG_INF,
    POS_INF,
    Bound,
    ExtReal,
    Infinity,
    as_float,
    cmp_bound,
    is_exact,
)


def rho(y: ExtReal, params: Params, from_below: bool = False) -> Mobius:
    """Generator applied at y: T below a, S on [a, b), T^-1 from b up and
    at infinity.  With from_below, an exact hit on a or b takes the branch
    from just below instead (T at a, S at b)."""
    if isinstance(y, Infinity):
        return T_INV
    ca = params.cmp(y, params.a)
    if ca < 0 or (ca == 0 and from_below):
        return T
    cb = params.cmp(y, params.b)
    if cb < 0 or (cb == 0 and from_below):
        return S
    return T_INV


# -- boxes -------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box; sides may be the +-oo sentinels."""

    x_lo: Bound
    x_hi: Bound
    y_lo: Bound
    y_hi: Bound

    def contains(self, x: ExtReal, y: ExtReal, tol: float = 0.0) -> bool:
        """Closed membership, widened by tol; an exact point with tol = 0
        is compared exactly.  The unsigned infinity lies in the box iff the
        box is unbounded on that axis."""

        def on_axis(v: ExtReal, lo: Bound, hi: Bound) -> bool:
            if isinstance(v, Infinity):
                return lo is NEG_INF or hi is POS_INF
            if tol or isinstance(v, float):
                return as_float(lo) - tol <= as_float(v) <= as_float(hi) + tol
            return cmp_bound(lo, v) <= 0 <= cmp_bound(hi, v)

        return on_axis(x, self.x_lo, self.x_hi) and on_axis(y, self.y_lo, self.y_hi)

    def floats(self) -> tuple[float, float, float, float]:
        return as_float(self.x_lo), as_float(self.x_hi), as_float(self.y_lo), as_float(self.y_hi)


@dataclass(frozen=True)
class Region:
    """A finite union of closed boxes."""

    boxes: tuple[Box, ...]

    def contains(self, x: ExtReal, y: ExtReal, tol: float = 0.0) -> bool:
        return any(b.contains(x, y, tol) for b in self.boxes)

    def clip(self, y_lo: Bound, y_hi: Bound) -> "Region":
        """The non-empty parts of the boxes between heights y_lo and y_hi."""
        out = []
        for bx in self.boxes:
            lo = bx.y_lo if cmp_bound(bx.y_lo, y_lo) >= 0 else y_lo
            hi = bx.y_hi if cmp_bound(bx.y_hi, y_hi) <= 0 else y_hi
            if cmp_bound(lo, hi) < 0:
                out.append(Box(bx.x_lo, bx.x_hi, lo, hi))
        return Region(tuple(out))


def trapping_region(params: Params) -> Region:
    """The forward-invariant region every off-diagonal point enters: the
    boxes above the diagonal, then those below it.

    Case analysis on the parameters; the three degenerate pairs get their
    explicit regions (which there coincide with the attractor).
    """
    a, b = params.a, params.b
    one = Fraction(1)
    if params.is_a0:
        return Region(
            (
                Box(-one, Fraction(0), NEG_INF, -one),
                Box(Fraction(0), one, NEG_INF, Fraction(0)),
                Box(one, POS_INF, NEG_INF, one),
            )
        )
    if params.is_b0:
        return Region(
            (
                Box(NEG_INF, -one, -one, POS_INF),
                Box(-one, Fraction(0), Fraction(0), POS_INF),
                Box(Fraction(0), one, one, POS_INF),
            )
        )

    if params.cmp(b, 1) >= 0:
        upper = [
            Box(NEG_INF, -one, b - 1, POS_INF),
            Box(-one, Fraction(0), -1 / a, POS_INF),
        ]
    else:
        c1, c2 = -b / (b - 1), -1 / a
        corner = c1 if params.cmp(c1, c2) <= 0 else c2
        upper = [
            Box(NEG_INF, -one, b - 1, POS_INF),
            Box(-one, Fraction(0), corner, POS_INF),
            Box(Fraction(0), one, -1 / (b - 1), POS_INF),
        ]

    if params.cmp(a, -1) <= 0:
        lower = [
            Box(Fraction(0), one, NEG_INF, -1 / b),
            Box(one, POS_INF, NEG_INF, a + 1),
        ]
    else:
        c1, c2 = a / (a + 1), -1 / b
        corner = c1 if params.cmp(c1, c2) >= 0 else c2
        lower = [
            Box(-one, Fraction(0), NEG_INF, -1 / (a + 1)),
            Box(Fraction(0), one, NEG_INF, corner),
            Box(one, POS_INF, NEG_INF, a + 1),
        ]
    return Region(tuple(upper + lower))


# -- vectorized float dynamics ------------------------------------------


def F_step_array(xs: np.ndarray, ys: np.ndarray, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """One reduction-map step on parallel float coordinate arrays, in place:
    xs and ys are overwritten with the image and returned.  The branch is
    rho's: T where y < a, S on a <= y < b, and T^-1 otherwise (y >= b,
    y = +inf, y NaN).  The S points, gathered by index, get -1/x and -1/y
    from the inputs; then every point gets the shift k = +1, 0, -1 of its
    branch (int8 views of the masks), and the S points their images."""
    import numpy as np

    a, b = as_float(params.a), as_float(params.b)
    k = (ys < a).view(np.int8) - (~(ys < b)).view(np.int8)
    mid = np.flatnonzero(k == 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sx, sy = -1.0 / xs[mid], -1.0 / ys[mid]
    shift = k.astype(np.float64)
    xs += shift
    ys += shift
    xs[mid], ys[mid] = sx, sy
    return xs, ys


@dataclass
class Cloud:
    """Monte Carlo approximation of the attractor."""

    points: np.ndarray  # shape (n, 2)
    dropped_projective: int = 0
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.points)


#: Random starts (and reduction-scan lattices) fill [-START_WINDOW,
#: START_WINDOW]^2 minus the band |x - y| <= DIAGONAL_MARGIN.
START_WINDOW = 20.0
DIAGONAL_MARGIN = 1e-3
#: independent random streams per cloud
N_CHUNKS = 8


def sample_attractor(params: Params, burn_in: int, n_points: int, seed: int) -> Cloud:
    """Iterate random starts burn_in times and keep the final points.

    Starts are uniform in the START_WINDOW square off the diagonal band.
    Each of the N_CHUNKS chunks draws its starts from its own stream,
    spawned from the master seed; the chunks are then iterated together
    as one array, which the elementwise map leaves bit-identical.
    """
    if burn_in < 1:
        raise ValueError("burn_in >= 1")
    if n_points < 0:
        raise ValueError("n_points >= 0")
    import numpy as np

    if n_points == 0:
        return Cloud(np.empty((0, 2)), 0, seed)
    streams = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    sizes = [n_points // N_CHUNKS] * N_CHUNKS
    sizes[-1] += n_points - sum(sizes)
    starts = []
    for ss, size in zip(streams, sizes):
        rng = np.random.default_rng(ss)
        xs = rng.uniform(-START_WINDOW, START_WINDOW, size)
        ys = rng.uniform(-START_WINDOW, START_WINDOW, size)
        bad = np.abs(xs - ys) <= DIAGONAL_MARGIN
        while bad.any():
            xs[bad] = rng.uniform(-START_WINDOW, START_WINDOW, bad.sum())
            ys[bad] = rng.uniform(-START_WINDOW, START_WINDOW, bad.sum())
            bad = np.abs(xs - ys) <= DIAGONAL_MARGIN
        starts.append((xs, ys))
    xs, ys = (np.concatenate(c) for c in zip(*starts))
    for _ in range(burn_in):
        xs, ys = F_step_array(xs, ys, params)
    ok = np.isfinite(xs) & np.isfinite(ys)
    return Cloud(np.column_stack([xs[ok], ys[ok]]), int((~ok).sum()), seed)


# -- the invariant measure du dw / (w - u)^2 ------------------------------


def invariant_box_measure(box: Box) -> float:
    """du dw/(w-u)^2 over a box, in closed form; infinite when the box
    meets the diagonal or is unbounded toward it at both ends.

    For finite corners this is log((x2-y2)(x1-y1)/((x2-y1)(x1-y2))), taken
    as log1p(wx wy/(d D)) with d and D the distances |x - y| of the corners
    nearest to and farthest from the diagonal, so that no logs cancel.  The
    widths wx = x2-x1 and wy = y2-y1 are exact (the sides of each axis
    share one field), d and D floats.  A box with one unbounded side has
    D = oo and measure log1p(w/d), w the width along its other axis.
    """
    x1, x2, y1, y2 = box.floats()
    below = x1 >= y2
    d = x1 - y2 if below else y1 - x2
    if not d > 0:
        return math.inf
    if math.isinf(x1) or math.isinf(x2):
        return math.log1p(_width(box.y_lo, box.y_hi) / d)
    if math.isinf(y1) or math.isinf(y2):
        return math.log1p(_width(box.x_lo, box.x_hi) / d)
    D = x2 - y1 if below else y2 - x1
    return math.log1p(_width(box.x_lo, box.x_hi) * _width(box.y_lo, box.y_hi) / (d * D))


def _width(lo: Bound, hi: Bound) -> float:
    """hi - lo, exact when both sides are."""
    if is_exact(lo) and is_exact(hi):
        return as_float(hi - lo)
    return as_float(hi) - as_float(lo)


def map_interval(m: Mobius, lo: Bound, hi: Bound) -> list[tuple[Bound, Bound]]:
    """Exact image of a (possibly unbounded) interval, split at the pole.

    A determinant-one map is increasing off its pole; the pole maps to
    -oo from above and +oo from below, and -oo/+oo map to a/c from above
    and below respectively.
    """
    if m.c == 0:
        # unit upper-triangular in PSL: a translation, preserves both ends
        def shift(v: Bound) -> Bound:
            return v if v is NEG_INF or v is POS_INF else m.apply(v)

        return [(shift(lo), shift(hi))]
    pole = Fraction(-m.d, m.c)
    spans = (
        [(lo, pole), (pole, hi)]
        if cmp_bound(lo, pole) < 0 and cmp_bound(pole, hi) < 0
        else [(lo, hi)]
    )
    lim = Fraction(m.a, m.c)
    out = []
    for u, v in spans:
        if u is NEG_INF:
            lo2: Bound = lim
        elif cmp_bound(u, pole) == 0:
            lo2 = NEG_INF
        else:
            lo2 = m.apply(u)
        if v is POS_INF:
            hi2: Bound = lim
        elif cmp_bound(v, pole) == 0:
            hi2 = POS_INF
        else:
            hi2 = m.apply(v)
        out.append((lo2, hi2))
    return out


def mobius_box_image(m: Mobius, box: Box) -> list[Box]:
    """Exact image of a box, split at the pole lines beforehand; pieces of
    zero width or height are dropped."""
    return [
        Box(x_lo, x_hi, y_lo, y_hi)
        for x_lo, x_hi in map_interval(m, box.x_lo, box.x_hi)
        if cmp_bound(x_lo, x_hi) < 0
        for y_lo, y_hi in map_interval(m, box.y_lo, box.y_hi)
        if cmp_bound(y_lo, y_hi) < 0
    ]
