"""Discrete Legendre transform and the dual tropical curve.

The curve lives in the dual plane: one vertex per triangle, one bounded edge
per interior subdivision edge, one ray per boundary subdivision edge.  All
coordinates are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fan import make_fan
from .lattice import (
    LatticeError,
    QVec,
    Vec,
    det2,
    dot,
    primitive,
    rot90,
    solve_dual,
    vadd,
    vneg,
    vsub,
)
from .polytope import (
    EdgeKey,
    Subdivision,
    edges,
    interior_vertices,
    require_valid,
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

    def bounded_by_key(self) -> dict[EdgeKey, BoundedEdge]:
        return {e.key: e for e in self.bounded}


def _primitive_q(v) -> Vec:
    d = v[0].denominator * v[1].denominator // math.gcd(v[0].denominator, v[1].denominator)
    return primitive((int(v[0] * d), int(v[1] * d)))


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

    vertices = []
    for t in range(len(sub.triangles)):
        v0, v1, v2 = sub.triangle_points(t)
        i0, i1, i2 = sub.triangles[t]
        f0, f1, f2 = Fraction(sub.nu[i0]), Fraction(sub.nu[i1]), Fraction(sub.nu[i2])
        vertices.append(solve_dual(vsub(v1, v0), vsub(v2, v0), f0 - f1, f0 - f2))

    bounded = []
    rays = []
    for e in edges(sub):
        if e.is_boundary:
            rays.append(TropicalRay(e.key, vertices[e.plus_triangle], _outgoing_direction(sub, e)))
            continue
        p_plus = vertices[e.plus_triangle]
        p_minus = vertices[e.minus_triangle]
        if p_plus == p_minus:
            raise LatticeError(f"subdivision not strictly convex at edge {e.key}")
        n_e = _primitive_q(vsub(p_minus, p_plus))
        if n_e != rot90(e.n_check):
            raise AssertionError(f"dual edge of {e.key} is not perpendicular to it")
        bounded.append(BoundedEdge(e.key, p_plus, p_minus, n_e))
    return TropicalCurve(sub, tuple(vertices), tuple(bounded), tuple(rays))


@dataclass(frozen=True)
class BoundedRegion:
    """A bounded component of the curve complement, dual to an interior vertex.

    Entry j of every per-edge tuple refers to the boundary edge dual to ray
    u_j of the vertex fan; the cycle lists the dual vertices of the wedge
    triangles counterclockwise, so edge j joins cycle[j-1] to cycle[j].
    """

    curve: TropicalCurve
    dual_vertex: Vec
    fan_rays: tuple[Vec, ...]
    triangles: tuple[int, ...]
    edge_keys: tuple[EdgeKey, ...]
    cycle: tuple[QVec, ...]
    epsilons: tuple[int, ...]


@lru_cache(maxsize=None)
def bounded_regions(curve: TropicalCurve) -> tuple[BoundedRegion, ...]:
    sub = curve.sub
    by_key = curve.bounded_by_key()
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
        area2 = sum(
            (cycle[j][0] - cycle[0][0]) * (cycle[j + 1][1] - cycle[0][1])
            - (cycle[j][1] - cycle[0][1]) * (cycle[j + 1][0] - cycle[0][0])
            for j in range(1, r - 1)
        )
        assert area2 > 0, "region cycle must be counterclockwise"

        edge_keys = []
        epsilons = []
        for j, u in enumerate(f.rays):
            key: EdgeKey = tuple(sorted((v, vadd(v, u))))
            be = by_key[key]
            ccw = vneg(rot90(u))
            if be.n_e == ccw:
                eps = 1
            elif be.n_e == vneg(ccw):
                eps = -1
            else:
                raise AssertionError(f"dual edge {key} not parallel to the region boundary")
            assert _primitive_q(vsub(cycle[j], cycle[j - 1])) == ccw
            edge_keys.append(key)
            epsilons.append(eps)
        regions.append(
            BoundedRegion(curve, v, f.rays, triangles, tuple(edge_keys), cycle, tuple(epsilons))
        )
    return tuple(regions)


def region_at(curve: TropicalCurve, v: Vec) -> BoundedRegion:
    for r in bounded_regions(curve):
        if r.dual_vertex == v:
            return r
    raise LatticeError(f"{v} is not an interior vertex")
