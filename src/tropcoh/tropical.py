"""Discrete Legendre transform and the dual tropical curve.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fan import make_fan
from .lattice import LatticeError, QVec, Vec, det2, dot, rot90, vadd, vneg, vsub
from .polytope import CheckedSubdivision, EdgeKey, Subdivision, checked


@dataclass(frozen=True)
class TropicalFunction:
    """m maps to the minimum of <v, m> + c over the stored terms."""

    terms: tuple[tuple[Vec, Fraction], ...]

    def __call__(self, m) -> Fraction:
        return min(Fraction(v[0]) * m[0] + Fraction(v[1]) * m[1] + c for v, c in self.terms)


def legendre(sub: Subdivision) -> TropicalFunction:
    return TropicalFunction(tuple((p, Fraction(c)) for p, c in zip(sub.points, sub.nu)))


@dataclass(frozen=True)
class BoundedEdge:
    key: EdgeKey
    p_plus: QVec
    p_minus: QVec
    n_e: Vec


@dataclass(frozen=True)
class TropicalRay:
    key: EdgeKey
    origin: QVec
    direction: Vec


@dataclass(frozen=True, eq=False)
class TropicalCurve:
    """Compared and hashed by identity, not field by field: its regions refer
    back to it."""

    index: CheckedSubdivision = field(repr=False)
    vertices: tuple[QVec, ...]
    bounded: tuple[BoundedEdge, ...]
    rays: tuple[TropicalRay, ...]
    # set once, when the curve is built; in interior vertex order
    regions: tuple[BoundedRegion, ...] = field(default=(), repr=False)

    @property
    def sub(self) -> Subdivision:
        return self.index.sub


def _outgoing_direction(sub: Subdivision, edge) -> Vec:
    """Dual-edge direction leaving the vertex of the given plus triangle."""
    c = next(p for p in sub.triangle_points(edge.plus_triangle) if p not in edge.key)
    d = rot90(edge.n_check)
    if dot(d, vsub(c, edge.a)) > 0:
        return d
    return vneg(d)


def tropical_curve(sub: Subdivision) -> TropicalCurve:
    # strict convexity across interior edges of a convex polygon is global, so
    # each vertex below realizes the minimum of legendre(sub)
    index = checked(sub)

    # the dual vertex of a triangle is minus the slope of nu there
    vertices = tuple(vneg(m) for m in index.slopes)
    bounded = []
    rays = []
    for e in index.edges:
        if e.is_boundary:
            rays.append(TropicalRay(e.key, vertices[e.plus_triangle], _outgoing_direction(sub, e)))
        else:
            # the positive kink validate proved is the edge length along rot90(n_check)
            p_plus, p_minus = vertices[e.plus_triangle], vertices[e.minus_triangle]
            bounded.append(BoundedEdge(e.key, p_plus, p_minus, rot90(e.n_check)))
    curve = TropicalCurve(index, vertices, tuple(bounded), tuple(rays))
    object.__setattr__(curve, "regions", tuple(_region(curve, v) for v in index.interior_vertices))
    return curve


@dataclass(frozen=True)
class BoundedRegion:
    """A bounded component of the curve complement, dual to an interior vertex.

    Entry j of every per-edge tuple refers to the boundary edge dual to ray
    u_j of the vertex fan; the cycle lists the dual vertices of the wedge
    triangles counterclockwise, so edge j runs from cycle[j-1] to cycle[j]
    along -rot90(u_j).
    """

    curve: TropicalCurve
    dual_vertex: Vec
    fan_rays: tuple[Vec, ...]
    triangles: tuple[int, ...]
    edge_keys: tuple[EdgeKey, ...]
    cycle: tuple[QVec, ...]


def _region(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    """The bounded region dual to the interior vertex v."""
    sub = curve.sub
    wedge_to_tri = {}
    for t in curve.index.stars[v]:
        pts = sub.triangle_points(t)
        d1, d2 = (vsub(p, v) for p in pts if p != v)
        if det2(d1, d2) < 0:
            d1, d2 = d2, d1
        wedge_to_tri[(d1, d2)] = t
    # each ray of the fan at v opens exactly one counterclockwise wedge
    f = make_fan(d1 for d1, _ in wedge_to_tri)
    r = len(f.rays)
    triangles = tuple(
        wedge_to_tri[(f.rays[j], f.rays[(j + 1) % r])] for j in range(r)
    )
    cycle = tuple(curve.vertices[t] for t in triangles)
    edge_keys = tuple(tuple(sorted((v, vadd(v, u)))) for u in f.rays)
    return BoundedRegion(curve, v, f.rays, triangles, edge_keys, cycle)


def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    return curve.regions


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    v = tuple(v)
    i = curve.index.interior_vertices.get(v)
    if i is None:
        raise LatticeError(f"{v} is not an interior vertex")
    return curve.regions[i]
