"""Discrete Legendre transform and the dual tropical curve.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .fan import make_fan
from .lattice import LatticeError, QVec, Vec, det2, dot, rot90, vadd, vneg, vsub
from .polytope import (
    EdgeKey,
    Subdivision,
    edges,
    interior_vertices,
    require_valid,
    slopes,
    stars,
)


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
    """Compared and hashed by identity, not field by field: a lookup in a cache
    keyed on the curve would otherwise hash every exact coordinate."""

    sub: Subdivision
    vertices: tuple[QVec, ...]
    bounded: tuple[BoundedEdge, ...]
    rays: tuple[TropicalRay, ...]


def _outgoing_direction(sub: Subdivision, edge) -> Vec:
    """Dual-edge direction leaving the vertex of the given plus triangle."""
    c = next(p for p in sub.triangle_points(edge.plus_triangle) if p not in edge.key)
    d = rot90(edge.n_check)
    if dot(d, vsub(c, edge.a)) > 0:
        return d
    return vneg(d)


@lru_cache(maxsize=None)
def tropical_curve(sub: Subdivision) -> TropicalCurve:
    # strict convexity across interior edges of a convex polygon is global, so
    # each vertex below realizes the minimum of legendre(sub)
    require_valid(sub)

    # the dual vertex of a triangle is minus the slope of nu there
    vertices = tuple(vneg(m) for m in slopes(sub, sub.nu))
    bounded = []
    rays = []
    for e in edges(sub):
        if e.is_boundary:
            rays.append(TropicalRay(e.key, vertices[e.plus_triangle], _outgoing_direction(sub, e)))
        else:
            # the positive kink validate proved is the edge length along rot90(n_check)
            p_plus, p_minus = vertices[e.plus_triangle], vertices[e.minus_triangle]
            bounded.append(BoundedEdge(e.key, p_plus, p_minus, rot90(e.n_check)))
    return TropicalCurve(sub, vertices, tuple(bounded), tuple(rays))


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


@lru_cache(maxsize=None)
def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    sub = curve.sub
    regions = []
    star = stars(sub)
    for v in interior_vertices(sub):
        wedge_to_tri = {}
        for t in star[v]:
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
        regions.append(BoundedRegion(curve, v, f.rays, triangles, edge_keys, cycle))
    return tuple(regions)


@lru_cache(maxsize=None)
def regions_by_vertex(curve: TropicalCurve) -> Mapping[Vec, BoundedRegion]:
    """The bounded regions keyed by their interior vertex, in region order."""
    return MappingProxyType({r.dual_vertex: r for r in bounded_regions(curve)})


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    v = tuple(v)
    region = regions_by_vertex(curve).get(v)
    if region is None:
        raise LatticeError(f"{v} is not an interior vertex")
    return region
