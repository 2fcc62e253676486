"""Deterministic SVG rendering of attractor domains and oracle clouds.

Fixed 800x800 viewport, y increasing upward, coordinates formatted to
three decimals: identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Optional

from .attractor import RectDomain
from .natext import Cloud
from .scalars import as_float

SIZE = 800.0


class _Frame:
    def __init__(self, window: tuple[float, float, float, float]):
        x0, x1, y0, y1 = window
        # an infinite extent (or one that overflows) would scale by 0, and inf * 0 is nan
        if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):
            raise ValueError("window must have positive, finite extent")
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.sx = SIZE / (x1 - x0)
        self.sy = SIZE / (y1 - y0)

    def px(self, x: float) -> float:
        return (x - self.x0) * self.sx

    def py(self, y: float) -> float:
        return SIZE - (y - self.y0) * self.sy  # y up

    def clip_x(self, v) -> float:
        return min(max(as_float(v), self.x0), self.x1)

    def clip_y(self, v: float) -> float:
        return min(max(v, self.y0), self.y1)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _staircase_path(steps, frame: _Frame, lower: bool) -> str:
    """Closed polygon of one component clipped to the window."""
    if not steps:
        return ""
    if lower:  # the region below the steps, from its bottom left corner
        pts = [(frame.clip_x(steps[0].x_lo), frame.y0)]
        tail = [(frame.x1, frame.clip_y(as_float(steps[-1].y))), (frame.x1, frame.y0)]
    else:  # the region above the steps, from its top left corner
        pts = [(frame.x0, frame.y1), (frame.x0, frame.clip_y(as_float(steps[0].y)))]
        tail = [(frame.clip_x(steps[-1].x_hi), frame.y1)]
    for s in steps:
        y = frame.clip_y(as_float(s.y))
        pts += [(frame.clip_x(s.x_lo), y), (frame.clip_x(s.x_hi), y)]
    pts += tail
    return "M " + " L ".join(f"{_fmt(frame.px(x))} {_fmt(frame.py(y))}" for x, y in pts) + " Z"


def render_svg(
    domain: Optional[RectDomain],
    cloud: Optional[Cloud] = None,
    window: tuple[float, float, float, float] = (-4.0, 4.0, -4.0, 4.0),
) -> str:
    """Draw the staircase boundary (filled) with an optional point cloud."""
    frame = _Frame(window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    if domain is not None:
        for steps, lower in ((domain.lower, True), (domain.upper, False)):
            d = _staircase_path(steps, frame, lower)
            if d:
                parts.append(
                    f'<path d="{d}" fill="#c8d8f0" stroke="#26456e" stroke-width="1.2"/>'
                )
    if cloud is not None and len(cloud):
        pts = cloud.points
        keep = (
            (pts[:, 0] >= frame.x0)
            & (pts[:, 0] <= frame.x1)
            & (pts[:, 1] >= frame.y0)
            & (pts[:, 1] <= frame.y1)
        )
        body = []
        for x, y in pts[keep]:
            body.append(
                f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="0.7"/>'
            )
        parts.append('<g fill="#802020" fill-opacity="0.45">' + "".join(body) + "</g>")
    # axes
    if frame.x0 < 0 < frame.x1:
        x = _fmt(frame.px(0.0))
        parts.append(
            f'<line x1="{x}" y1="0" x2="{x}" y2="{int(SIZE)}" stroke="#999" stroke-width="0.5"/>'
        )
    if frame.y0 < 0 < frame.y1:
        y = _fmt(frame.py(0.0))
        parts.append(
            f'<line x1="0" y1="{y}" x2="{int(SIZE)}" y2="{y}" stroke="#999" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
