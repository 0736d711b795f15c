"""Stock subdivisions used across the test suite and bundled fixtures."""

from __future__ import annotations

from .polytope import Subdivision, subdivision


def local_p2() -> Subdivision:
    """Triangle fan around the origin whose dual curve has one bounded region.

    The single interior vertex carries the projective-plane fan, so the
    bounded region has self-intersections (1, 1, 1).
    """
    return subdivision(
        points=[(0, 0), (1, 0), (0, 1), (-1, -1)],
        triangles=[(0, 1, 2), (0, 2, 3), (0, 3, 1)],
        nu=[0, 1, 1, 1],
    )


def blowup_p2() -> Subdivision:
    """Quadrilateral star whose interior vertex carries a one-blowup fan.

    Rays (-1,-1), (0,-1), (1,0), (0,1) give boundary self-intersections
    (0, -1, 0, 1).
    """
    return subdivision(
        points=[(0, 0), (1, 0), (2, 1), (1, 2), (1, 1)],
        triangles=[(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)],
        nu=[1, 1, 1, 1, 0],
    )


def a2d_subdivision(d: int) -> Subdivision:
    """Subdivided triangle conv{(0,0), (0,2), (2d,0)} with d-1 interior vertices.

    Row y=1 holds lattice points x = 0..d; the convex lift is x^2 on the
    base row, x^2+x on the middle row, and 2 at the apex.
    """
    if d < 1:
        raise ValueError("d must be positive")
    points = [(x, 0) for x in range(2 * d + 1)]
    points += [(x, 1) for x in range(d + 1)]
    points.append((0, 2))
    index = {p: i for i, p in enumerate(points)}

    def tri(a, b, c):
        return (index[a], index[b], index[c])

    triangles = []
    for x in range(d):
        triangles.append(tri((0, 2), (x, 1), (x + 1, 1)))
        triangles.append(tri((x, 1), (x, 0), (x + 1, 0)))
        triangles.append(tri((x, 1), (x + 1, 0), (x + 1, 1)))
    for x in range(d, 2 * d):
        triangles.append(tri((d, 1), (x, 0), (x + 1, 0)))

    def lift(p):
        x, y = p
        if y == 0:
            return x * x
        if y == 1:
            return x * x + x
        return 2

    return subdivision(points, triangles, [lift(p) for p in points])
