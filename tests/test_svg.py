from pathlib import Path

import pytest

from abcf.attractor import build_attractor
from abcf.natext import sample_attractor
from abcf.params import Params
from abcf.svg import render_svg

GOLDEN = Path(__file__).parent / "golden"
WINDOW = (-4.0, 4.0, -4.0, 4.0)


def fig1():
    p = Params.make("-4/5", "2/5")
    dom = build_attractor(p)
    cloud = sample_attractor(p, burn_in=200, n_points=10_000, seed=20)
    return render_svg(dom, cloud, WINDOW)


PANELS = {
    "fig4_minus": ("-1", "0"),
    "fig4_artin": ("-1", "1"),
    "fig4_hurwitz": ("-1/2", "1/2"),
}


def test_fig1_matches_golden_and_is_byte_stable():
    text1, text2 = fig1(), fig1()
    assert text1 == text2
    assert text1 == (GOLDEN / "fig1_zagier.svg").read_text()


@pytest.mark.parametrize("name", sorted(PANELS))
def test_fig4_panels_match_golden(name):
    a, b = PANELS[name]
    dom = build_attractor(Params.make(a, b))
    text = render_svg(dom, None, WINDOW)
    assert text == render_svg(dom, None, WINDOW)
    assert text == (GOLDEN / f"{name}.svg").read_text()


def test_svg_structure():
    dom = build_attractor(Params.make("-1", "1"))
    text = render_svg(dom, None, WINDOW)
    assert text.startswith("<svg ")
    assert 'width="800" height="800"' in text
    assert text.count("<path ") == 2  # two components


def test_empty_cloud_boundary_only():
    from abcf.natext import Cloud
    import numpy as np

    dom = build_attractor(Params.make("-1", "1"))
    text = render_svg(dom, Cloud(np.empty((0, 2))), WINDOW)
    assert "<circle" not in text


def test_bad_window_rejected():
    # an empty window, and windows whose extent is not finite: infinite, or
    # 2 * 1e308, which overflows (a scale of 0 would write nan into the path)
    dom = build_attractor(Params.make("-1", "1"))
    inf = float("inf")
    for window in ((1.0, 1.0, -4.0, 4.0), (-inf, inf, -inf, inf), (-1e308, 1e308, -1e308, 1e308),
                   (-4.0, 4.0, -4.0, inf)):
        with pytest.raises(ValueError):
            render_svg(dom, None, window)
