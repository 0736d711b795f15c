"""The dual tropical curve, its bounded regions, and the kink vectors on its edges.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .fan import Fan, balance, fan_at_vertex
from .lattice import LatticeError, QVec, Vec, as_int, record, vadd, vneg
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
    edge_keys = tuple(tuple(sorted((v, vadd(v, u)))) for u in f.rays)
    return BoundedRegion(curve, v, f, edge_keys)


def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    return curve.regions


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    v = tuple(v)
    i = curve.index.interior_vertices.get(v)
    if i is None:
        raise LatticeError(f"{v} is not an interior vertex")
    return curve.regions[i]


KinkVector = Mapping[EdgeKey, int]


def kink_entry(K: KinkVector, key: EdgeKey) -> int:
    """K's integer on the edge key, and 0 where K has no entry.

    A K that is not a Mapping from edge keys raises, and so does an entry
    that is not an integer or an integral Fraction.
    """
    if not isinstance(K, Mapping):
        raise LatticeError(f"kink vector is a {type(K).__name__}, not a mapping from edge keys")
    x = K.get(key, 0)
    return x if type(x) is int else as_int(x, f"kink on edge {key}")


def check_cocycle(curve: TropicalCurve, K: KinkVector) -> None:
    """Raise unless K balances around every region of the curve."""
    for region in curve.regions:
        if balance(region.fan.rays, [kink_entry(K, key) for key in region.edge_keys]) != (0, 0):
            raise LatticeError(f"not a cocycle: inconsistent around region {region.dual_vertex}")
