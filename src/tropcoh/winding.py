"""Winding numbers of the boundary value curve and intersection counts.

The curve has vertices in the half lattice, so doubling every coordinate
moves all ray casting into plain integer arithmetic with no rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import LatticeError, Vec, det2, dot
from .spheres import GammaCurve, SemiIntegralSupport, gamma_curve, kinks_of_theta


class GenericityError(LatticeError):
    """Raised when a probe direction is degenerate for the requested point."""


def _doubled_vertices(vertices) -> list[Vec]:
    out = []
    for v in vertices:
        x2, y2 = 2 * Fraction(v[0]), 2 * Fraction(v[1])
        if x2.denominator != 1 or y2.denominator != 1:
            raise LatticeError("curve vertices must lie in the half lattice")
        out.append((int(x2), int(y2)))
    return out


def _cast(doubled: list[Vec], x: int, y: int) -> int:
    """Signed crossings of the rightward horizontal ray from a doubled point."""
    w = 0
    n = len(doubled)
    for i in range(n):
        ax, ay = doubled[i - 1]
        bx, by = doubled[i]
        if ay == by:
            assert not (ay == y and min(ax, bx) <= x <= max(ax, bx)), (
                "lattice point on the boundary curve"
            )
            continue
        up = ay <= y < by
        down = by <= y < ay
        if not (up or down):
            continue
        d = by - ay
        num = (ax - x) * d + (y - ay) * (bx - ax)
        assert num != 0, "lattice point on the boundary curve"
        if (num > 0) == (d > 0):
            w += 1 if up else -1
    return w


def winding(gamma: GammaCurve, m: Vec) -> int:
    doubled = _doubled_vertices(gamma.vertices)
    return _cast(doubled, 2 * m[0], 2 * m[1])


@dataclass(frozen=True)
class WindingTable:
    """Nonzero winding numbers over an integer box; the box edge is all zero."""

    entries: dict[Vec, int]
    bounds: tuple[int, int, int, int]

    def h_even_odd(self) -> tuple[int, int]:
        even = sum(w for w in self.entries.values() if w > 0)
        odd = -sum(w for w in self.entries.values() if w < 0)
        return even, odd


def winding_table(theta: SemiIntegralSupport) -> WindingTable:
    gamma = gamma_curve(theta)
    doubled = _doubled_vertices(gamma.vertices)
    xmin = math.floor(min(v[0] for v in gamma.vertices)) - 1
    xmax = math.ceil(max(v[0] for v in gamma.vertices)) + 1
    ymin = math.floor(min(v[1] for v in gamma.vertices)) - 1
    ymax = math.ceil(max(v[1] for v in gamma.vertices)) + 1
    entries = {}
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            w = _cast(doubled, 2 * x, 2 * y)
            if w != 0:
                assert xmin < x < xmax and ymin < y < ymax, (
                    "winding must vanish on the box edge"
                )
                entries[(x, y)] = w
    return WindingTable(entries, (xmin, ymin, xmax, ymax))


def h_even_odd(theta: SemiIntegralSupport) -> tuple[int, int]:
    return winding_table(theta).h_even_odd()


def is_strictly_convex(theta: SemiIntegralSupport) -> str:
    """One of "convex", "concave", "neither" for the glued piecewise form."""
    ell = kinks_of_theta(theta).ell
    if all(l > 0 for l in ell):
        return "convex"
    if all(l < 0 for l in ell):
        return "concave"
    return "neither"


def convex_intersection_count(theta: SemiIntegralSupport) -> int:
    if is_strictly_convex(theta) == "neither":
        raise LatticeError("convexity required")
    verts = _doubled_vertices(gamma_curve(theta).vertices)
    r = len(verts)
    area2 = sum(det2(verts[j - 1], verts[j]) for j in range(r))
    assert area2 > 0, "boundary curve must run counterclockwise"
    xmin = -(-min(v[0] for v in verts) // 2)
    xmax = max(v[0] for v in verts) // 2
    ymin = -(-min(v[1] for v in verts) // 2)
    ymax = max(v[1] for v in verts) // 2
    count = 0
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            p = (2 * x, 2 * y)
            inside = True
            for j in range(r):
                a, b = verts[j - 1], verts[j]
                if det2((b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])) < 0:
                    inside = False
                    break
            if inside:
                count += 1
    return count


def winding_via_T(theta: SemiIntegralSupport, m: Vec, direction: Vec) -> int:
    """Count extrema of the scaling parameter along rays; an independent oracle.

    For each fan ray the probe line from m along the direction crosses the
    level line of that ray at parameter T; a crossing strictly inside the
    matching curve segment with T > 0 is a local extremum, and minima minus
    maxima is the winding number.
    """
    fan = theta.fan
    r = len(fan.rays)
    w = 0
    for j in range(r):
        u = fan.rays[j]
        den = dot(direction, u)
        if den == 0:
            raise GenericityError("perturb direction")
        num = theta.ray_value(j) - dot(m, u)
        t = Fraction(num, den) if isinstance(num, int) else num / den
        if t <= 0:
            continue
        p = (m[0] + t * direction[0], m[1] + t * direction[1])
        a, b = theta.thetas[j - 1], theta.thetas[j]
        d = (b[0] - a[0], b[1] - a[1])
        if d == (0, 0):
            if p == a:
                raise GenericityError("perturb direction")
            continue
        assert det2((p[0] - a[0], p[1] - a[1]), d) == 0
        if d[0] != 0:
            s = (p[0] - a[0]) / d[0]
        else:
            s = (p[1] - a[1]) / d[1]
        if s == 0 or s == 1:
            raise GenericityError("perturb direction")
        if not 0 < s < 1:
            continue
        w += 1 if det2(direction, d) > 0 else -1
    return w


def probe_directions():
    """Deterministic generic-direction candidates (1,0), (3,2), (5,-2), ..."""
    n = 0
    while True:
        q = (-1) ** (n + 1) * ((n + 1) // 2)
        yield (2 * n + 1, 2 * q)
        n += 1


def winding_via_T_auto(theta: SemiIntegralSupport, m: Vec, max_tries: int = 64) -> int:
    for tries, direction in enumerate(probe_directions()):
        if tries >= max_tries:
            break
        try:
            return winding_via_T(theta, m, direction)
        except GenericityError:
            continue
    raise GenericityError("perturb direction")
