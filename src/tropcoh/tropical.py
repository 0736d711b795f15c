"""The dual tropical curve and its bounded regions.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

from typing import NamedTuple

from .fan import Fan, fan_at_vertex
from .lattice import LatticeError, QVec, Vec, record, vadd, vneg
from .polytope import CheckedSubdivision, EdgeKey, Subdivision, SubdivisionEdge, checked


class TropicalCurve:
    """Compared and hashed by identity, not field by field: its regions refer
    back to it. It is built from a valid subdivision's index, and each field is set once."""

    __slots__ = ("index", "vertices", "bounded", "rays", "regions")
    index: CheckedSubdivision
    vertices: tuple[QVec, ...]
    # the index's own interior and boundary edges, in key order.  Bounded edge
    # e runs from vertices[e.plus_triangle] to vertices[e.minus_triangle] along
    # e.normal, for a length of its kink, which validate proved positive; ray e
    # leaves vertices[e.plus_triangle] along e.normal, into the polygon
    bounded: tuple[SubdivisionEdge, ...]
    rays: tuple[SubdivisionEdge, ...]
    regions: tuple[BoundedRegion, ...]  # in interior vertex order

    def __init__(self, index: CheckedSubdivision) -> None:
        # strict convexity across interior edges of a convex polygon is global, so
        # each vertex realizes the minimum of <p, m> + nu(p) over the points p;
        # the dual vertex of a triangle is minus the slope of nu there
        vertices = tuple(vneg(m) for m in index.slopes)
        bounded = tuple(e for e in index.edges if not e.is_boundary)
        rays = tuple(e for e in index.edges if e.is_boundary)
        for name, value in zip(self.__slots__, (index, vertices, bounded, rays)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "regions", tuple(_region(self, v) for v in index.interior_vertices))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def sub(self) -> Subdivision:
        return self.index.sub


def tropical_curve(sub: Subdivision) -> TropicalCurve:
    return TropicalCurve(checked(sub))


@record
class BoundedRegion(NamedTuple):
    """A bounded component of the curve complement, dual to an interior vertex.

    Entry j of every per-edge tuple refers to the boundary edge dual to ray
    u_j of the vertex fan.
    """

    curve: TropicalCurve
    dual_vertex: Vec
    fan: Fan
    edge_keys: tuple[EdgeKey, ...]


def _region(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    """The bounded region dual to the interior vertex v."""
    f = fan_at_vertex(curve.sub, v)
    edge_keys = tuple((v, w) if v < w else (w, v) for w in (vadd(v, u) for u in f.rays))
    return BoundedRegion(curve, v, f, edge_keys)


def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    return curve.regions


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    v = tuple(v)
    i = curve.index.interior_vertices.get(v)
    if i is None:
        raise LatticeError(f"{v} is not an interior vertex")
    return curve.regions[i]
