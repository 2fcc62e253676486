"""compare_with_oracle's boundary gap against a KD-tree query, bit for bit."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import abcf.attractor
from abcf.attractor import ORACLE_CLIP, SAMPLES_PER_STEP, build_attractor, compare_with_oracle
from abcf.natext import Cloud, sample_attractor
from abcf.params import Params
from abcf.scalars import as_float

#: the classical, Zagier and both-strong pairs, then the boundary-line pairs
#: (1/k - 1, 1/k) of the benchmark's verify workloads
PAIRS = [("-1", "1"), ("-1/2", "1/2"), ("-7/10", "4/5"), ("-4/5", "2/5"),
         ("-3/4", "4/7"), ("-6/5", "1/3"), ("-5/6", "3/5")]
PAIRS += [(f"{1 - k}/{k}", f"1/{k}") for k in (17, 31, 53)]
#: domains with steps beyond ORACLE_CLIP: in y (y = 6 for (-6/5, 1/3)), in x
#: on both sides (every domain), or wholly (x <= -9 for (-1/10, 9/10))
DOMAINS = [build_attractor(Params.make(a, b))
           for a, b in [("-4/5", "2/5"), ("-1", "1"), ("-6/5", "1/3"), ("-1/10", "9/10")]]


def kdtree_gap(dom, pts):
    """The largest over clipped steps of the least distance from the
    step's samples to the cloud, queried in a KD-tree."""
    tree = cKDTree(pts)
    gap = 0.0
    for s in dom.upper + dom.lower:
        y = as_float(s.y)
        lo, hi = max(-ORACLE_CLIP, as_float(s.x_lo)), min(ORACLE_CLIP, as_float(s.x_hi))
        if abs(y) <= ORACLE_CLIP and hi > lo:
            xs = np.linspace(lo, hi, SAMPLES_PER_STEP)
            d, _ = tree.query(np.column_stack([xs, np.full_like(xs, y)]))
            gap = max(gap, float(d.min()))
    return gap


def assert_gap_is_kdtree_gap(dom, pts):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    got = compare_with_oracle(dom, Cloud(pts)).boundary_gap
    assert got == kdtree_gap(dom, pts)
    return got


@functools.cache
def attractor_and_cloud(a, b):
    p = Params.make(a, b)
    return build_attractor(p), sample_attractor(p, 200, 10_000, seed=1).points


@pytest.mark.parametrize("a,b", PAIRS)
def test_gap_on_attractor_clouds(a, b):
    assert_gap_is_kdtree_gap(*attractor_and_cloud(a, b))


#: batches of one point (every window split across batches) and of 7 points
#: (batch edges inside windows and between steps)
SMALL_BATCHES = [1, 7]


@pytest.mark.parametrize("batch", SMALL_BATCHES)
@pytest.mark.parametrize("a,b", PAIRS)
def test_gap_on_attractor_clouds_in_small_batches(monkeypatch, a, b, batch):
    monkeypatch.setattr(abcf.attractor, "GAP_BATCH", batch)
    assert_gap_is_kdtree_gap(*attractor_and_cloud(a, b))


coords = st.one_of(st.floats(-6.0, 6.0), st.floats(-1e3, 1e3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dom=st.sampled_from(DOMAINS),
       pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
def test_gap_on_random_clouds(dom, pts):
    assert_gap_is_kdtree_gap(dom, pts)


EDGE_CLOUDS = [
    [(0.0, 50.0)],  # one point, far from every step
    [(0.3, -0.2)],  # one point inside
    [(0.0, 4.9), (100.0, 100.0), (-100.0, -100.0), (3.0, 30.0)],  # the window must grow
    [(x, 0.25) for x in np.linspace(-6.0, 6.0, 25)],  # equal y values
    [(0.1, 0.25)] * 5 + [(-0.1, -0.25)] * 3,  # repeated points
    [(7.0, 0.2), (-7.0, -0.6), (0.9, 6.0)],  # nearest beyond the clip
]


@pytest.mark.parametrize("dom", DOMAINS)
@pytest.mark.parametrize("pts", EDGE_CLOUDS)
def test_gap_edge_clouds(dom, pts):
    assert_gap_is_kdtree_gap(dom, pts)


@pytest.mark.parametrize("batch", SMALL_BATCHES)
@pytest.mark.parametrize("dom", DOMAINS)
@pytest.mark.parametrize("pts", EDGE_CLOUDS)
def test_gap_edge_clouds_in_small_batches(monkeypatch, dom, pts, batch):
    monkeypatch.setattr(abcf.attractor, "GAP_BATCH", batch)
    assert_gap_is_kdtree_gap(dom, pts)


def test_gap_of_points_on_the_steps():
    dom = DOMAINS[0]
    steps = [s for s in dom.upper + dom.lower if abs(as_float(s.y)) <= ORACLE_CLIP]
    on = [(max(-ORACLE_CLIP, as_float(s.x_lo)), as_float(s.y)) for s in steps]  # first samples
    assert assert_gap_is_kdtree_gap(dom, on) == 0.0
    beside = [(np.nextafter(x, 1.0), y) for x, y in on]  # on a step, between two samples
    assert 0.0 < assert_gap_is_kdtree_gap(dom, beside) < 1e-15
    # a float beside every sample, where the estimated sample index can be
    # one off and the check must find the bracketing pair
    rows = [np.linspace(max(-ORACLE_CLIP, as_float(s.x_lo)), min(ORACLE_CLIP, as_float(s.x_hi)),
                        SAMPLES_PER_STEP) for s in steps]
    around = [(np.nextafter(x, t), y) for xs, (_, y) in zip(rows, on) for x in xs for t in (-np.inf, np.inf)]
    assert 0.0 < assert_gap_is_kdtree_gap(dom, around) < 1e-15


def test_gap_search_memory_is_bounded():
    # at k = 53 the search peaks at 0.47 MB on the cloud, of which the sorted
    # cloud is 0.35 MB; shifted 0.5 in y, the cloud misses the boundary and
    # the windows grow to thousands of points a step, 24 MB searched whole
    dom, pts = attractor_and_cloud("-52/53", "1/53")
    for cloud in (Cloud(pts), Cloud(pts + [0.0, 0.5])):
        compare_with_oracle(dom, cloud)  # the domain's step floats are made once
        tracemalloc.start()
        try:
            compare_with_oracle(dom, cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
