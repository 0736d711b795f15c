"""Kink vectors, the region balancing map, and divisor classes.

A kink vector assigns an integer to each interior subdivision edge
(equivalently, to each bounded edge of the dual curve).  Vectors in the
kernel of the balancing map are exactly the realizable ones.
"""

from __future__ import annotations

from typing import NamedTuple

from .fan import balance
from .lattice import Vec, dot, integer_kernel, record, vadd, vsub
from .polytope import EdgeKey, Subdivision, checked
from .tropical import BoundedRegion, KinkVector, TropicalCurve, kink_entry

# `picard` refuses a basis with more entries, (points - 3) x interior edges: the
# kernel's coefficients grow with the hexagonal grid, so its time grows faster still
MAX_PICARD_CELLS = 600_000


@record
class PhiMap(NamedTuple):
    """Matrix of the per-region balancing sums, two rows per bounded region."""

    edge_order: tuple[EdgeKey, ...]
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, K: KinkVector) -> tuple[int, ...]:
        vec = [kink_entry(K, key) for key in self.edge_order]
        return tuple(sum(r * v for r, v in zip(row, vec)) for row in self.matrix)

    def kernel_vectors(self) -> list[list[int]]:
        return integer_kernel(self.matrix, len(self.edge_order))


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
        small = a if len(stars[a]) <= len(stars[b]) else b  # count the triangles on ab in the smaller star
        if sum(a in q and b in q for q in map(sub.triangle_points, stars[small])) == 2:
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
