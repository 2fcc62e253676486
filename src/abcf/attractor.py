"""Constructive computation of the finite-rectangular attractor.

The attractor has two connected components bounded by non-decreasing
step functions whose levels are exactly the values of the four truncated
orbits.  Each level's horizontal segment is the transport of one of the
two boundary rays [-oo, x_b] x {b} and [x_a, oo] x {a} along its orbit
word; the unknown corners x_a, x_b solve the two-equation system that
glues the segment at Sb to the next level above and the segment at Sa
to the next level below.  Everything here is exact: corners come out as
rationals or quadratic surds, _ranks ranks the levels once per pair and
every staircase is ordered by those ranks, adjacency of segments is
checked by exact comparison, and the bijectivity of the reduction map on
the domain is certified by one sweep over the boxes of the domain and its
images: _ranks ranks their x sides and their y sides, once each, and in
every band between two consecutive y-cuts a count of the pieces and the
images over each stretch between x-cuts finds the defect cells, integers
only, and measures each run of them as one box; no grid is built.
The float checks against the Monte Carlo oracle (contains_array,
compare_with_oracle, reduction_scan) import numpy on first use, so the
construction and its proofs run without it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .cycles import Level, TruncatedOrbits, truncated_orbits
from .mobius import S, T, T_INV
from .natext import (
    DIAGONAL_MARGIN,
    START_WINDOW,
    Box,
    Cloud,
    F_step_array,
    Region,
    invariant_box_measure,
    mobius_box_image,
)
from .params import Params
from .scalars import (
    INF,
    NEG_INF,
    POS_INF,
    Bound,
    ExtReal,
    Infinity,
    as_float,
    cmp_bound,
    format_scalar,
)


class ConstructionError(RuntimeError):
    """The finite-rectangular construction failed; carries diagnostics.

    When the endpoint orbits do not resolve at the cap (the finiteness
    condition fails), ``failed_endpoint`` names the first endpoint, "a"
    or "b", whose cycle is undetermined; otherwise it is None."""

    def __init__(self, message: str, failed_endpoint: Optional[str] = None):
        super().__init__(message)
        self.failed_endpoint = failed_endpoint


def _ranks(values: list[Bound]) -> tuple[list[Bound], list[int]]:
    """The distinct values in ascending order, and the position of each
    given value among them.  as_float rounds correctly, so values whose
    floats differ are distinct and in the order of their floats: only a
    run of equal floats is sorted, and split, by exact comparison.  The one
    exact sort: of the levels in the build, of the box sides in the tiling."""
    keys = [as_float(v) for v in values]
    cuts: list[Bound] = []
    ranks = [0] * len(values)
    order = sorted(range(len(values)), key=keys.__getitem__)
    exact = functools.cmp_to_key(lambda i, j: cmp_bound(values[i], values[j]))
    for _, run in itertools.groupby(order, keys.__getitem__):
        fresh = len(cuts)
        for i in sorted(run, key=exact):
            if len(cuts) == fresh or cmp_bound(cuts[-1], values[i]) != 0:
                cuts.append(values[i])
            ranks[i] = len(cuts) - 1
    return cuts, ranks


@dataclass(frozen=True)
class Step:
    x_lo: Bound
    x_hi: Bound
    y: ExtReal
    origin: str = ""

    def to_json(self) -> dict:
        def enc(v):
            if v is NEG_INF:
                return "-inf"
            if v is POS_INF:
                return "inf"
            return format_scalar(v)

        return {
            "x_lo": enc(self.x_lo),
            "x_hi": enc(self.x_hi),
            "y": format_scalar(self.y),
            "x_lo_float": as_float(self.x_lo),
            "x_hi_float": as_float(self.x_hi),
            "y_float": as_float(self.y),
            "origin": self.origin,
        }


@dataclass
class RectDomain:
    """Two staircase components; either may be empty in degenerate cases."""

    params: Params
    upper: list[Step]  # ascending y; region above the steps
    lower: list[Step]  # ascending y; region below the steps
    x_a: Optional[ExtReal]
    x_b: Optional[ExtReal]
    degenerate: bool = False
    orbits: Optional[TruncatedOrbits] = None
    #: the _state() that solve_corners accepted by _disconnections
    accepted: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _state(self) -> tuple:
        return self.params, self.x_a, self.x_b, tuple(self.upper), tuple(self.lower)

    # -- geometry ---------------------------------------------------------

    def region(self) -> Region:
        """The boxes of the upper component, then those of the lower one."""
        out = []
        for i, s in enumerate(self.upper):
            nxt: Bound = self.upper[i + 1].y if i + 1 < len(self.upper) else POS_INF
            if cmp_bound(s.y, nxt) < 0:
                out.append(Box(NEG_INF, s.x_hi, s.y, nxt))
        prev: Bound = NEG_INF
        for s in self.lower:
            if cmp_bound(prev, s.y) < 0:
                out.append(Box(s.x_lo, POS_INF, prev, s.y))
            prev = s.y
        return Region(tuple(out))

    # -- membership --------------------------------------------------------

    @functools.cached_property
    def _float_arrays(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The y, x_lo and x_hi floats of every step, as three arrays for the
        upper steps and three for the lower ones."""
        import numpy as np

        return tuple(tuple(np.array([as_float(getattr(s, k)) for s in steps]) for k in ("y", "x_lo", "x_hi"))
                     for steps in (self.upper, self.lower))

    def contains_array(self, xs: np.ndarray, ys: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        import numpy as np

        (up_levels, _, up_rights), (low_levels, low_lefts, _) = self._float_arrays
        inside = np.zeros(xs.shape, dtype=bool)
        if len(low_levels):
            idx = np.searchsorted(low_levels, ys - tol, side="left")
            ok = ys <= low_levels[-1] + tol
            idxc = np.minimum(idx, len(low_levels) - 1)
            inside |= ok & (xs >= low_lefts[idxc] - tol)
        if len(up_levels):
            idx = np.searchsorted(up_levels, ys + tol, side="right") - 1
            ok = ys >= up_levels[0] - tol
            idxc = np.maximum(idx, 0)
            inside |= ok & (xs <= up_rights[idxc] + tol)
        return inside

    def to_json(self) -> dict:
        return {
            "a": format_scalar(self.params.a),
            "b": format_scalar(self.params.b),
            "params": self.params.to_json(),
            "x_a": None if self.x_a is None else format_scalar(self.x_a),
            "x_b": None if self.x_b is None else format_scalar(self.x_b),
            "x_a_float": None if self.x_a is None else as_float(self.x_a),
            "x_b_float": None if self.x_b is None else as_float(self.x_b),
            "degenerate": self.degenerate,
            "upper": [s.to_json() for s in self.upper],
            "lower": [s.to_json() for s in self.lower],
        }


# -- transported segments -------------------------------------------------


def _segment(level: Level, x_a: ExtReal, x_b: ExtReal) -> Step:
    """The level's horizontal segment: a-chains transport the boundary ray
    [x_a, oo] (start moving, end fixed), b-chains [-oo, x_b] (start fixed
    at the infinity image, end moving)."""
    w = level.word
    s, e = (w.apply(x_a), w.apply(INF)) if level.a_anchored else (w.apply(INF), w.apply(x_b))
    # not both INF: the corners are finite, and w(x) = w(INF) = INF needs c = d = 0
    if isinstance(s, Infinity):
        return Step(NEG_INF, e, level.value, level.origin)
    if isinstance(e, Infinity):
        return Step(s, POS_INF, level.value, level.origin)
    if cmp_bound(s, e) > 0:
        raise ConstructionError(
            f"level {level.origin}: transported arc wraps infinity ({s} > {e})"
        )
    return Step(s, e, level.value, level.origin)


def _sorted_steps(
    levels: list[Level], rank: list[int], x_a: ExtReal, x_b: ExtReal
) -> list[Step]:
    """The levels' segments for the corners (x_a, x_b), by the rank of their
    value (rank[i] is levels[i]'s) and, on one value, by x_lo, the only
    exact comparison.  Both sorts are stable, so ties keep the level order."""
    steps = [_segment(e, x_a, x_b) for e in levels]
    order = sorted(range(len(steps)), key=rank.__getitem__)
    by_x_lo = functools.cmp_to_key(lambda i, j: cmp_bound(steps[i].x_lo, steps[j].x_lo))
    runs = itertools.groupby(order, rank.__getitem__)
    return [steps[i] for _, run in runs for i in sorted(run, key=by_x_lo)]


def _disconnections(dom: RectDomain) -> Iterator[str]:
    """Why the staircases do not bound one connected domain, first reason
    first: per component (lower, then upper) the breaks of the chain and
    the faults of the staircase shape, then the joins at x = 0 (La[1]|Lb[0],
    Ua[0]|Ub[1]) and the corner joins at x_a (straddling a) and x_b
    (straddling b).  The empty components of a degenerate domain pass."""
    params = dom.params
    for steps, component in ((dom.lower, "lower"), (dom.upper, "upper")):
        if not steps:
            if not dom.degenerate:
                yield f"{component}: empty"
            continue
        for s, t in zip(steps, steps[1:]):
            if cmp_bound(s.x_hi, t.x_lo) != 0:
                yield (
                    f"{component}: segments at levels {s.y} ({s.origin}) and "
                    f"{t.y} ({t.origin}) not joined: {s.x_hi} vs {t.x_lo}"
                )
        if component == "lower":
            if steps[-1].x_hi is not POS_INF:
                yield "lower: top segment does not extend to +oo"
            if steps[0].x_lo is NEG_INF:
                yield "lower: bottom segment unbounded left"
            if any(s.x_hi is POS_INF for s in steps[:-1]):
                yield "lower: interior segment unbounded"
        else:
            if steps[0].x_lo is not NEG_INF:
                yield "upper: bottom segment does not extend to -oo"
            if steps[-1].x_hi is POS_INF:
                yield "upper: top segment unbounded right"
            if any(s.x_lo is NEG_INF for s in steps[1:]):
                yield "upper: interior segment unbounded"
        for s in steps:
            if s.x_lo is not NEG_INF and s.x_hi is not POS_INF and cmp_bound(s.x_lo, s.x_hi) >= 0:
                yield f"{component}: empty segment at level {s.y} ({s.origin})"
    zero = Fraction(0)
    for steps, origin_left, origin_right, label in (
        (dom.lower, "La[1]", "Lb[0]", "join STa|Sb at 0"),
        (dom.upper, "Ua[0]", "Ub[1]", "join Sa|ST-1b at 0"),
    ):
        left = next((s for s in steps if s.origin == origin_left), None)
        right = next((s for s in steps if s.origin == origin_right), None)
        if left is not None and right is not None:
            if cmp_bound(left.x_hi, zero) != 0 or cmp_bound(right.x_lo, zero) != 0:
                yield f"{label}: expected join at x = 0"
    for steps, pivot, corner, component in (
        (dom.lower, params.a, dom.x_a, "lower/x_a"),
        (dom.upper, params.b, dom.x_b, "upper/x_b"),
    ):
        if corner is None:
            continue
        # when the endpoint itself occurs as an orbit level (an exact hit,
        # the coupling case), either adjacent pair may carry the corner;
        # accept any straddling pair joining there, within the pair's eps: a
        # float pair near a degenerate one has that one's explicit domain
        cands = [
            i
            for i in range(len(steps) - 1)
            if params.cmp(steps[i].y, pivot) <= 0 and params.cmp(pivot, steps[i + 1].y) <= 0
        ]
        if cands and not any(cmp_bound(steps[i].x_hi, corner) == 0 for i in cands):
            yield f"{component}: levels straddling the endpoint do not join at the corner"


# -- the corner system ----------------------------------------------------


def _solve_pair(e_l: Level, e_u: Level) -> list[tuple[ExtReal, ExtReal]]:
    """Candidate (x_a, x_b) solutions for a chosen (y_ell, y_u) pair: x_b =
    wl(oo) when y_ell is b-anchored, else wl(x_a); x_a = wu(oo) when y_u is
    a-anchored, else wu(x_b), with wl = S @ (y_ell's word) and likewise wu (S
    is its own inverse in PSL(2,Z)).  Candidates with an infinite end drop."""
    wl, wu = S @ e_l.word, S @ e_u.word
    if not e_l.a_anchored:
        x_b = wl.apply(INF)
        sols = [(wu.apply(INF if e_u.a_anchored else x_b), x_b)]
    elif e_u.a_anchored:
        x_a = wu.apply(INF)
        sols = [(x_a, wl.apply(x_a))]
    else:
        # coupled: x_a is a fixed point of wu @ wl, the attracting one first
        sols = [(x_a, wl.apply(x_a)) for x_a in (wu @ wl).fixed_points()]
    return [s for s in sols if not any(isinstance(x, Infinity) for x in s)]


def _nearest(levels: list[Level], rank: list[int], anchor: int, sign: int) -> list[Level]:
    """The six levels nearest levels[anchor], at or above it for sign 1 and
    at or below it for sign -1, nearest first and ties in level order:
    rank[i], the rank of levels[i]'s value, decides alone."""
    r = rank[anchor]
    cs = [i for i in range(len(levels)) if i != anchor and sign * (rank[i] - r) >= 0]
    return [levels[i] for i in sorted(cs, key=lambda i: sign * rank[i])[:6]]


def solve_corners(params: Params, tro: TruncatedOrbits) -> RectDomain:
    """Find (x_a, x_b) by scanning the admissible (y_ell, y_u) pairs.

    Each candidate pair yields a two-equation Mobius system; a solution
    is accepted only if the corner bounds x_a >= 1, x_b <= -1 hold and
    the transported staircases bound one connected domain (the chain,
    the joins at 0 and the corner joins).  Returns that domain.  _ranks
    ranks the levels once; the candidates and every staircase read ranks.
    """
    if not tro.finite:
        # raised, not kept in a local: the error would then hold its own
        # traceback, and this frame's orbits, until a collection
        failed = "a" if tro.cycle_a.classification == "undetermined" else "b"
        raise ConstructionError("finiteness condition fails at the cap", failed)
    lower_levels, upper_levels = tro.la + tro.lb, tro.ua + tro.ub
    for e in lower_levels + upper_levels:
        if isinstance(e.value, Infinity):
            raise ConstructionError(f"orbit level at infinity: {e.origin}")
    if not tro.lb or not tro.ua:
        raise ConstructionError("missing anchor level (empty cycle side)")
    _, rank = _ranks([e.value for e in lower_levels + upper_levels])
    lower_rank, upper_rank = rank[: len(lower_levels)], rank[len(lower_levels) :]
    # the anchors Sb = Lb[0], after the La levels, and Sa = Ua[0], the first upper level
    uppers = _nearest(upper_levels, upper_rank, 0, -1)
    failures: list[str] = []
    for e_l in _nearest(lower_levels, lower_rank, len(tro.la), 1):
        for e_u in uppers:
            for x_a, x_b in _solve_pair(e_l, e_u):
                if cmp_bound(x_a, 1) < 0 or cmp_bound(x_b, -1) > 0:
                    failures.append(
                        f"({e_l.origin},{e_u.origin}): corner bounds fail "
                        f"x_a={as_float(x_a):.6g} x_b={as_float(x_b):.6g}"
                    )
                    continue
                try:
                    lower = _sorted_steps(lower_levels, lower_rank, x_a, x_b)
                    upper = _sorted_steps(upper_levels, upper_rank, x_a, x_b)
                except ConstructionError as exc:
                    failures.append(f"({e_l.origin},{e_u.origin}): {exc}")
                    continue
                dom = RectDomain(params, upper, lower, x_a, x_b, orbits=tro)
                reason = next(_disconnections(dom), None)
                if reason is None:
                    dom.accepted = dom._state()
                    return dom
                failures.append(f"({e_l.origin},{e_u.origin}): {reason}")
    raise ConstructionError(
        "no corner candidate produced a connected staircase:\n  " + "\n  ".join(failures[:12])
    )


# -- assembly ---------------------------------------------------------------


def _degenerate_domain(params: Params) -> RectDomain:
    one = Fraction(1)
    zero = Fraction(0)
    if params.is_m11:
        # the four explicit boxes; forward invariance and the exact
        # bijectivity tiling force the lower edge 0 = b - 1 on the first
        upper = [
            Step(NEG_INF, -one, zero, "deg"),
            Step(-one, zero, one, "deg"),
        ]
        lower = [
            Step(zero, one, -one, "deg"),
            Step(one, POS_INF, zero, "deg"),
        ]
        return RectDomain(params, upper, lower, one, -one, degenerate=True)
    if params.is_a0:
        lower = [
            Step(-one, zero, -one, "deg"),
            Step(zero, one, zero, "deg"),
            Step(one, POS_INF, one, "deg"),
        ]
        return RectDomain(params, [], lower, one, None, degenerate=True)
    if params.is_b0:
        upper = [
            Step(NEG_INF, -one, -one, "deg"),
            Step(-one, zero, zero, "deg"),
            Step(zero, one, one, "deg"),
        ]
        return RectDomain(params, upper, [], None, -one, degenerate=True)
    raise ValueError("not a degenerate parameter pair")


def build_attractor(params: Params, cap: int = 100_000) -> RectDomain:
    """Compute the attractor domain exactly from the truncated orbits.  This
    is the finiteness test too: when the orbits do not resolve at the cap,
    the ConstructionError names the failed endpoint."""
    if params.degenerate:
        return _degenerate_domain(params)
    if not params.exact:
        raise ConstructionError("attractor construction requires exact parameters")
    return solve_corners(params, truncated_orbits(params, cap))


def verify_connectivity(dom: RectDomain) -> dict:
    """{"ok", "failures"}: the reasons, if any, why the staircases do not
    bound one connected domain (see _disconnections).  A domain that still
    holds what solve_corners accepted passed that predicate already."""
    failures = [] if dom.accepted == dom._state() else list(_disconnections(dom))
    return {"ok": not failures, "failures": failures}


# -- bijectivity ------------------------------------------------------------


@dataclass
class BijectivityReport:
    overlap_cells: int
    uncovered_cells: int
    escaped_cells: int
    overlap_measure: float
    uncovered_measure: float
    locking_segments: list[dict]
    ok: bool


def locking_segments(dom: RectDomain) -> list[dict]:
    """Interior horizontal segments at the strong-cycle end levels, as
    floats: {"level", "x_lo", "x_hi"}."""
    if dom.orbits is None or dom.x_a is None or dom.x_b is None:
        return []
    out = []
    for res, chain in ((dom.orbits.cycle_a, "La"), (dom.orbits.cycle_b, "Lb")):
        if res.classification == "strong":
            s = _segment(Level(res.end, res.lower_words[-1], chain, 0), dom.x_a, dom.x_b)
            lo, hi = as_float(s.x_lo), as_float(s.x_hi)
            out.append({"level": as_float(res.end), "x_lo": lo, "x_hi": hi})
    return out


def _branch_images(dom: RectDomain) -> tuple[Region, list[Box]]:
    """The domain's boxes, and the images of its parts below a, on [a, b]
    and above b under the branches T, S and T^-1 of the map."""
    a, b = dom.params.a, dom.params.b
    region = dom.region()
    branches = (
        (T, region.clip(NEG_INF, a)),
        (S, region.clip(a, b)),
        (T_INV, region.clip(b, POS_INF)),
    )
    return region, [im for m, part in branches for bx in part.boxes for im in mobius_box_image(m, bx)]


def verify_bijectivity(dom: RectDomain) -> BijectivityReport:
    """Cut the domain along the branches of the map -- below a, on [a, b]
    and above b -- map the three parts by T, S and T^-1, and certify by a
    sweep in y that the images tile the domain.  The x sides of all the
    boxes are ranked once, and their y sides once; from then on the sweep
    reads integers only.  In every band between two consecutive y-cuts it
    counts the domain pieces and the images over each stretch between
    x-cuts: a stretch of one piece must lie under one image, and a stretch
    of no piece under none (two pieces over a stretch raise).  The defect
    cells alone decide ok, and each run of overlap or uncovered cells is
    measured as one box."""
    locking = locking_segments(dom)  # its exact comparisons come before the ranking
    region, images = _branch_images(dom)
    boxes = [*region.boxes, *images]
    xs, xr = _ranks([v for bx in boxes for v in (bx.x_lo, bx.x_hi)])
    ys, yr = _ranks([v for bx in boxes for v in (bx.y_lo, bx.y_hi)])
    # per band, how many domain pieces and images start (+1) and end (-1) at each x-cut
    bands: list[dict[int, list[int]]] = [{} for _ in ys[1:]]
    for k in range(len(boxes)):
        lo, hi = xr[2 * k], xr[2 * k + 1]
        if lo < hi:
            side = int(k >= len(region.boxes))
            for deltas in bands[yr[2 * k] : yr[2 * k + 1]]:
                deltas.setdefault(lo, [0, 0])[side] += 1
                deltas.setdefault(hi, [0, 0])[side] -= 1
    cells = [0, 0, 0]  # overlap, uncovered, escaped
    runs: tuple[list[Box], list[Box]] = ([], [])  # the overlap and the uncovered runs
    for j, deltas in enumerate(bands):
        cuts = sorted(deltas)
        n_pieces = n_images = 0
        for i0, i1 in zip(cuts, cuts[1:]):
            n_pieces += deltas[i0][0]
            n_images += deltas[i0][1]
            if n_pieces > 1:
                raise ConstructionError("domain boxes overlap; staircase is malformed")
            if n_pieces and n_images != 1:
                defect = 0 if n_images else 1
                runs[defect].append(Box(xs[i0], xs[i1], ys[j], ys[j + 1]))
                cells[defect] += i1 - i0
            elif n_images and not n_pieces:
                cells[2] += i1 - i0
    return BijectivityReport(
        *cells,
        overlap_measure=math.fsum(map(invariant_box_measure, runs[0])),
        uncovered_measure=math.fsum(map(invariant_box_measure, runs[1])),
        locking_segments=locking,
        ok=not any(cells),
    )


# -- oracle comparison and reduction scan -----------------------------------


@dataclass
class OracleComparison:
    inside_fraction: float
    boundary_gap: float
    n_points: int


#: float slack of the membership test against oracle and scan points
ORACLE_TOL = 1e-9
#: boundary steps are sampled inside [-ORACLE_CLIP, ORACLE_CLIP]^2
ORACLE_CLIP = 5.0
SAMPLES_PER_STEP = 33


def compare_with_oracle(dom: RectDomain, cloud: Cloud) -> OracleComparison:
    """Fraction of oracle points inside the closed domain, and the worst
    distance from the (clipped) boundary steps to the nearest point."""
    import numpy as np

    pts = cloud.points
    if len(pts) == 0:
        raise ValueError("empty cloud")
    inside = dom.contains_array(pts[:, 0], pts[:, 1], ORACLE_TOL)
    frac = float(inside.mean())

    px, py = pts[np.argsort(pts[:, 1], kind="stable")].T.copy()  # the cloud sorted by y
    y, lo, hi = map(np.concatenate, zip(*dom._float_arrays))
    lo, hi = np.maximum(lo, -ORACLE_CLIP), np.minimum(hi, ORACLE_CLIP)
    kept = (np.abs(y) <= ORACLE_CLIP) & (hi > lo)
    # set distance: how close the cloud comes to each step anywhere
    return OracleComparison(frac, _boundary_gap(px, py, y[kept], lo[kept], hi[kept]), len(pts))


#: window points per batch of the boundary-gap search, so that its
#: temporaries stay small however many points the windows hold
GAP_BATCH = 1 << 11


def _boundary_gap(px: np.ndarray, py: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """The largest over the steps [lo, hi] x {y} of the least distance from
    the step's SAMPLES_PER_STEP samples to the points (px, py) sorted by py
    (a KD-tree's float), or 0.0 without steps.

    Each pass takes every live step's window, the points with |py - y| <= r,
    in flat batches of at most GAP_BATCH points.  A point's dx is the least
    |px - sample| over the pair at searchsorted's index, clipped to [1, 32]:
    estimated from the row's spacing, checked on its two samples, else
    counted.  Why the gap is the one-step-at-a-time loop's, bit for bit:
    - that loop gave each step its float minimum m_j of sqrt(dx*dx + dy*dy),
      or a value <= its running gap, so its gap was max_j m_j; over any
      superset of the needed points the same formula gives the same maximum;
    - fl(px - sample) is monotone in the sample, so over candidates that
      include the bracketing pair the least |px - sample| is the loop's;
    - a window minimum m <= |py - y| of the nearest point left out is m_j,
      since that bounds every left-out distance, in floats too;
    - a step whose m is <= the gap so far cannot raise it and is dropped;
      the rest search again at radius 4r (no radius changes a minimum).
    One np.linspace makes every row with a one-row call's bits: 32 spacings,
    a power of two, make its two rounding paths agree unless one is subnormal.
    """
    import numpy as np

    n, last = SAMPLES_PER_STEP, SAMPLES_PER_STEP - 1
    width = (hi - lo) / last
    samples = np.linspace(lo, hi, n, axis=1).ravel()
    r, live, gap = np.maximum(width, ORACLE_TOL), np.arange(len(y)), 0.0
    while len(live):
        yl, ll, wl, row = y[live], lo[live], width[live], live * n
        j0, j1 = np.searchsorted(py, yl - r), np.searchsorted(py, yl + r, side="right")
        ends, m = np.cumsum(j1 - j0), np.full(len(live), math.inf)
        for f0 in range(0, int(ends[-1]), GAP_BATCH):
            f = np.arange(f0, min(f0 + GAP_BATCH, ends[-1]))
            s = np.searchsorted(ends, f, side="right")  # the live step of each point
            k = j1[s] - (ends[s] - f)
            wx, dy = px[k], py[k] - yl[s]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                c = np.fmin(np.fmax(np.ceil((wx - ll[s]) / wl[s]), 1), last).astype(np.intp)
            i = row[s] + c
            left, right = samples[i - 1], samples[i]
            miss = ((c > 1) & (left >= wx)) | ((c < last) & (right < wx))
            if miss.any():
                below = samples.reshape(-1, n)[live[s[miss]]] < wx[miss, None]
                i = row[s[miss]] + below.sum(1).clip(1, last)
                left[miss], right[miss] = samples[i - 1], samples[i]
            dx = np.minimum(np.abs(wx - left), np.abs(wx - right))
            d = np.sqrt(dx * dx + dy * dy)
            first = np.flatnonzero(np.diff(s, prepend=-1))
            m[s[first]] = np.minimum(m[s[first]], np.minimum.reduceat(d, first))
        out_lo = np.where(j0 > 0, yl - py[j0 - 1], math.inf)  # |py - y| of the nearest left out
        out_hi = np.where(j1 < len(py), py[np.minimum(j1, len(py) - 1)] - yl, math.inf)
        done = m <= np.minimum(out_lo, out_hi)
        gap = max(gap, float(m[done].max(initial=0.0)))
        more = ~done & (m > gap)
        live, r = live[more], 4 * r[more]
    return gap


@dataclass
class ScanReport:
    coverage: float
    max_time: int
    n_points: int
    unresolved: int


def reduction_scan(dom: RectDomain, grid: int, cap: int = 10_000) -> ScanReport:
    """Iterate the reduction map from a lattice of off-diagonal points and
    report the fraction reaching the domain within the cap."""
    if grid < 0:
        raise ValueError("grid >= 0")
    import numpy as np

    params = dom.params
    g = np.linspace(-START_WINDOW, START_WINDOW, grid)
    xs, ys = np.meshgrid(g, g)
    xs, ys = xs.ravel(), ys.ravel()
    keep = np.abs(xs - ys) > DIAGONAL_MARGIN
    xs, ys = xs[keep], ys[keep]
    n = len(xs)
    if not n:  # grid 0, or grid 1 (its one point lies on the diagonal)
        return ScanReport(math.nan, 0, 0, 0)
    hit_time = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)  # the grid index of each point not yet in the domain
    for t in range(cap + 1):
        if t:
            # x may legitimately pass through the point at infinity (IEEE
            # signed infinities realize the projective transit); only a y
            # stuck at infinity (rational termination) never resolves
            xs, ys = F_step_array(xs, ys, params)
        done = dom.contains_array(xs, ys, ORACLE_TOL)
        hit_time[idx[done]] = t
        left = ~done
        xs, ys, idx = xs[left], ys[left], idx[left]
        if not len(idx):
            break
    resolved = hit_time >= 0
    coverage = float(resolved.mean())
    max_time = int(hit_time[resolved].max()) if resolved.any() else 0
    return ScanReport(coverage, max_time, n, int((~resolved).sum()))
