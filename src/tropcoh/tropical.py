"""The dual tropical curve, its bounded regions, and the kink vectors on its edges.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .fan import Fan, balance, make_fan
from .lattice import LatticeError, QVec, Vec, as_int, det2, vadd, vneg, vsub
from .polytope import CheckedSubdivision, EdgeKey, Subdivision, checked


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


def tropical_curve(sub: Subdivision) -> TropicalCurve:
    # strict convexity across interior edges of a convex polygon is global, so
    # each vertex below realizes the minimum of <p, m> + nu(p) over the points p
    index = checked(sub)

    # the dual vertex of a triangle is minus the slope of nu there
    vertices = tuple(vneg(m) for m in index.slopes)
    bounded = []
    rays = []
    for e in index.edges:
        if e.is_boundary:
            # a boundary edge's normal points into the polygon; the dual ray leaves along it
            rays.append(TropicalRay(e.key, vertices[e.plus_triangle], e.normal))
        else:
            # the positive kink validate proved is the edge length along the normal
            p_plus, p_minus = vertices[e.plus_triangle], vertices[e.minus_triangle]
            bounded.append(BoundedEdge(e.key, p_plus, p_minus, e.normal))
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
    fan: Fan
    edge_keys: tuple[EdgeKey, ...]
    cycle: tuple[QVec, ...]


def _region(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    """The bounded region dual to the interior vertex v."""
    # each wedge triangle, by its two rays counterclockwise, to its dual vertex
    wedge_vertex = {}
    for t in curve.index.stars[v]:
        d1, d2 = (vsub(p, v) for p in curve.sub.triangle_points(t) if p != v)
        if det2(d1, d2) < 0:
            d1, d2 = d2, d1
        wedge_vertex[(d1, d2)] = curve.vertices[t]
    # each ray of the fan at v opens exactly one counterclockwise wedge
    f = make_fan(d1 for d1, _ in wedge_vertex)
    r = len(f.rays)
    cycle = tuple(wedge_vertex[(f.rays[j], f.rays[(j + 1) % r])] for j in range(r))
    edge_keys = tuple(tuple(sorted((v, vadd(v, u)))) for u in f.rays)
    return BoundedRegion(curve, v, f, edge_keys, cycle)


def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    return curve.regions


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    v = tuple(v)
    i = curve.index.interior_vertices.get(v)
    if i is None:
        raise LatticeError(f"{v} is not an interior vertex")
    return curve.regions[i]


KinkVector = Mapping[EdgeKey, int]


def kink_vector(K) -> KinkVector:
    """K itself; a kink vector is a Mapping from edge keys to integers, and any other K raises."""
    if not isinstance(K, Mapping):
        raise LatticeError(f"kink vector is a {type(K).__name__}, not a mapping from edge keys")
    return K


def kink_entry(K: KinkVector, key: EdgeKey) -> int:
    """K's integer on the edge key, and 0 where K has no entry.

    K must pass kink_vector, and an entry that is not an integer or an
    integral Fraction raises.
    """
    x = kink_vector(K).get(key, 0)
    return x if type(x) is int else as_int(x, f"kink on edge {key}")


def check_cocycle(curve: TropicalCurve, K: KinkVector) -> None:
    """Raise unless K balances around every region of the curve."""
    for region in curve.regions:
        if balance(region.fan.rays, [kink_entry(K, key) for key in region.edge_keys]) != (0, 0):
            raise LatticeError(f"not a cocycle: inconsistent around region {region.dual_vertex}")
