"""Deterministic SVG 1.1 figures for tropical curves and winding diagrams."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Union

from .lattice import LatticeError
from .tropical import TropicalCurve

if TYPE_CHECKING:  # annotations only: a tropical curve figure loads neither module
    from .spheres import GammaCurve
    from .winding import WindingTable

SCALE = 40
PAD = 1.0

POSITIVE_FILL = "#2b7a3d"
NEGATIVE_FILL = "#b03030"


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


class _Canvas:
    """Maps lattice coordinates to a y-flipped pixel frame.

    float() raises past the float range; that or an infinite frame raises
    LatticeError.  Every point drawn lies in the frame, so its pixels are finite.
    """

    def __init__(self, xs, ys):
        try:
            xs, ys = [float(x) for x in xs], [float(y) for y in ys]
        except OverflowError:
            xs = ys = [math.inf]
        self.xmin = min(xs) - PAD
        self.xmax = max(xs) + PAD
        self.ymin = min(ys) - PAD
        self.ymax = max(ys) + PAD
        self.width = (self.xmax - self.xmin) * SCALE
        self.height = (self.ymax - self.ymin) * SCALE
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise LatticeError("the figure's coordinates lie outside the float range")

    def to_px(self, p) -> tuple[float, float]:
        return (
            (float(p[0]) - self.xmin) * SCALE,
            (self.ymax - float(p[1])) * SCALE,
        )

    def clip_ray(self, origin, direction) -> tuple[float, float]:
        """Far endpoint of origin + t*direction inside the frame."""
        ox, oy = float(origin[0]), float(origin[1])
        dx, dy = float(direction[0]), float(direction[1])
        t = None
        for o, d, lo, hi in ((ox, dx, self.xmin, self.xmax), (oy, dy, self.ymin, self.ymax)):
            if d > 0:
                cand = (hi - o) / d
            elif d < 0:
                cand = (lo - o) / d
            else:
                continue
            t = cand if t is None else min(t, cand)
        if t is None or t <= 0:
            raise LatticeError(f"ray from {origin} along {direction} does not leave the frame")
        return (ox + t * dx, oy + t * dy)


def _header(canvas: _Canvas) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" '
        f'viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">',
        f'<rect width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" fill="white"/>',
    ]


def _curve_elements(canvas: _Canvas, curve: TropicalCurve) -> list[str]:
    out = []
    for e in curve.bounded:
        a = canvas.to_px(curve.vertices[e.plus_triangle])
        b = canvas.to_px(curve.vertices[e.minus_triangle])
        out.append(
            f'<line class="edge" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="#202020" stroke-width="2.00"/>'
        )
    for e in curve.rays:
        origin = curve.vertices[e.plus_triangle]
        a = canvas.to_px(origin)
        far = canvas.to_px(canvas.clip_ray(origin, e.normal))
        out.append(
            f'<line class="ray" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(far[0])}" y2="{_fmt(far[1])}" stroke="#606060" stroke-width="1.50"/>'
        )
    for v in sorted(set(curve.vertices)):
        x, y = canvas.to_px(v)
        out.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.50" fill="#202020"/>'
        )
    return out


def _gamma_elements(
    canvas: _Canvas, gamma: GammaCurve, table: Optional[WindingTable]
) -> list[str]:
    pts = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (canvas.to_px(v) for v in gamma.vertices)
    )
    out = [
        f'<polygon class="gamma" points="{pts}" fill="none" '
        'stroke="#202020" stroke-width="2.00"/>'
    ]
    for v in gamma.vertices:
        x, y = canvas.to_px(v)
        out.append(
            f'<circle class="gamma-vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            'r="2.50" fill="#202020"/>'
        )
    if table is not None:
        for point in sorted(table.entries):
            w = table.entries[point]
            fill = POSITIVE_FILL if w > 0 else NEGATIVE_FILL
            x, y = canvas.to_px(point)
            out.append(
                f'<circle class="winding-point" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="4.50" fill="{fill}"/>'
            )
            out.append(
                f'<text class="winding-label" x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
                f'font-family="sans-serif" font-size="12">{w}</text>'
            )
    return out


def render_svg(
    obj: Union[TropicalCurve, GammaCurve], table: Optional[WindingTable] = None
) -> bytes:
    if isinstance(obj, TropicalCurve):
        if table is not None:
            raise LatticeError("winding tables attach to a gamma curve")
        xs, ys = zip(*obj.vertices)
        canvas = _Canvas(xs, ys)
        body = _curve_elements(canvas, obj)
    else:
        points = list(obj.vertices) + (list(table.entries) if table is not None else [])
        xs, ys = zip(*points)
        canvas = _Canvas(xs, ys)
        body = _gamma_elements(canvas, obj, table)
    doc = _header(canvas) + body + ["</svg>"]
    return ("\n".join(doc) + "\n").encode("ascii")
