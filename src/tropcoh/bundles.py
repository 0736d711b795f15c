"""Integral support functions, kink vectors, and the region balancing map.

A kink vector assigns an integer to each interior subdivision edge
(equivalently, to each bounded edge of the dual curve).  Vectors in the
kernel of the balancing map are exactly the realizable ones.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .fan import balance
from .lattice import LatticeError, Vec, dot, integer_kernel, vadd, vsub
from .polytope import EdgeKey, Subdivision, SubdivisionEdge, checked, edge_kinks
from .tropical import (
    BoundedRegion, KinkVector, TropicalCurve, check_cocycle, kink_entry, kink_vector,
    tropical_curve,
)


@dataclass(frozen=True)
class SupportFunction:
    sub: Subdivision
    values: tuple[int, ...]


def support_function(sub: Subdivision, values) -> SupportFunction:
    checked(sub)
    if isinstance(values, Mapping):
        vals = tuple(values[p] for p in sub.points)
    else:
        vals = tuple(values)
    if len(vals) != len(sub.points):
        raise LatticeError("one value per lattice point required")
    if any(v != int(v) for v in vals):
        raise LatticeError("support function values must be integers")
    return SupportFunction(sub, tuple(int(v) for v in vals))


def kinks(phi: SupportFunction) -> dict[EdgeKey, int]:
    # integral values on elementary triangles have integral slopes and kinks
    return {key: int(k) for key, k in edge_kinks(phi.sub, phi.values).items()}


@dataclass(frozen=True)
class PhiMap:
    """Matrix of the per-region balancing sums, two rows per bounded region."""

    edge_order: tuple[EdgeKey, ...]
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, K: KinkVector) -> tuple[int, ...]:
        vec = [kink_entry(K, key) for key in self.edge_order]
        return tuple(sum(r * v for r, v in zip(row, vec)) for row in self.matrix)

    def kernel_vectors(self) -> list[list[int]]:
        return integer_kernel(self.matrix, ncols=len(self.edge_order))


def phi_map(curve: TropicalCurve) -> PhiMap:
    # the bounded edges are the interior subdivision edges, in key order
    order = tuple(e.key for e in curve.bounded)
    col = {key: i for i, key in enumerate(order)}
    rows = []
    for region in curve.regions:
        rx = [0] * len(order)
        ry = [0] * len(order)
        # the region's two rows send K to balance(fan.rays, -K)
        for key, u in zip(region.edge_keys, region.fan.rays):
            rx[col[key]], ry[col[key]] = balance((u,), (-1,))
        rows.append(tuple(rx))
        rows.append(tuple(ry))
    return PhiMap(order, tuple(rows))


def support_from_kinks(K: KinkVector, sub: Subdivision) -> SupportFunction:
    curve = tropical_curve(sub)
    check_cocycle(curve, K)

    base = min(range(len(sub.triangles)), key=lambda t: tuple(sorted(sub.triangle_points(t))))
    parts: dict[int, tuple[Vec, int]] = {base: ((0, 0), 0)}
    queue = [base]
    adjacent: dict[int, list[SubdivisionEdge]] = {}
    for e in curve.index.edges:
        if e.is_boundary:
            continue
        adjacent.setdefault(e.plus_triangle, []).append(e)
        adjacent.setdefault(e.minus_triangle, []).append(e)
    while queue:
        t = queue.pop(0)
        m, c = parts[t]
        for e in adjacent.get(t, []):
            k = kink_entry(K, e.key)
            normal = e.normal
            if t == e.plus_triangle:
                other = e.minus_triangle
                m2 = (m[0] - k * normal[0], m[1] - k * normal[1])
            else:
                other = e.plus_triangle
                m2 = (m[0] + k * normal[0], m[1] + k * normal[1])
            c2 = c + dot(vsub(m, m2), e.a)
            if other not in parts:
                parts[other] = (m2, c2)
                queue.append(other)
            elif parts[other] != (m2, c2):
                raise LatticeError(f"kinks disagree around edge {e.key} after the cocycle check")
    for t in range(len(sub.triangles)):
        if t not in parts:
            raise LatticeError(f"triangle {t} is not reached from triangle {base} across edges")

    values = [None] * len(sub.points)
    for t, (i0, i1, i2) in enumerate(sub.triangles):
        m, c = parts[t]
        for i in (i0, i1, i2):
            v = dot(m, sub.points[i]) + c
            if values[i] is None:
                values[i] = v
            elif values[i] != v:
                raise LatticeError(f"triangle {t} gives lattice point {sub.points[i]} a second value")
    return SupportFunction(sub, tuple(values))


def divisor_kinks(sub: Subdivision, p: Vec) -> dict[EdgeKey, int]:
    """The class of O(D_p): the kinks of the hat function, 1 at p and 0 at every other point.

    See Cox, Little and Schenck, Toric Varieties, Thm 4.1.3 and 4.2.1.  The hat
    bends by 1 across each interior side ab of a triangle pab, and by s - 2
    across an edge pa between triangles pac and pad, where c + d - 2p = s (a - p).
    Sparse, in key order: every interior edge at p has an entry, zeros included.
    """
    stars = checked(sub).stars
    out = {}
    across: dict[Vec, list[Vec]] = {}  # each neighbour a of p to the third vertices on pa
    for t in stars[p]:
        a, b = (q for q in sub.triangle_points(t) if q != p)
        if len(set(stars[a]).intersection(stars[b])) == 2:
            out[min(a, b), max(a, b)] = 1
        across.setdefault(a, []).append(b)
        across.setdefault(b, []).append(a)
    for a, third in across.items():
        if len(third) == 2:
            u, w = vsub(a, p), vsub(vsub(vadd(*third), p), p)
            out[min(p, a), max(p, a)] = dot(w, u) // dot(u, u) - 2
    return {key: out[key] for key in sorted(out)}


def canonical_KC(region: BoundedRegion) -> dict[EdgeKey, int]:
    """The canonical class of the region's compact surface D_v, as a kink vector.

    On a Calabi-Yau threefold adjunction gives K_{D_v} = O(D_v)|_{D_v}.
    """
    return divisor_kinks(region.curve.sub, region.dual_vertex)


def hms_line_bundle(K: KinkVector) -> dict[EdgeKey, int]:
    """Kink vector of the line bundle mirror to the section of K."""
    return {key: -kink_entry(K, key) for key in kink_vector(K)}
