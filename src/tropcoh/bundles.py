"""Kink vectors, the region balancing map, and divisor classes.

A kink vector assigns an integer to each interior subdivision edge
(equivalently, to each bounded edge of the dual curve).  Vectors in the
kernel of the balancing map are exactly the realizable ones.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import Vec, column_kernel, record
from .polytope import EdgeKey, KinkVector, Subdivision, checked, kink_entry
from .tropical import BoundedRegion, TropicalCurve

# `picard` refuses a basis with more entries, (points - 3) x interior edges: the
# kernel's coefficients grow with the hexagonal grid, so its time grows faster still
MAX_PICARD_CELLS = 600_000


@record
class PhiMap(NamedTuple):
    """The per-region balancing sums by column: column j holds the (row, nonzero entry) pairs of
    edge_order[j], rows increasing; rows 2i and 2i + 1 send K to balance(fan.rays, -K) of region i."""

    edge_order: tuple[EdgeKey, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    nrows: int

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows."""
        rows = [[0] * len(self.columns) for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, x in col:
                rows[i][j] = x
        return tuple(map(tuple, rows))

    def apply(self, K: KinkVector) -> tuple[int, ...]:
        out = [0] * self.nrows
        for key, col in zip(self.edge_order, self.columns):
            k = kink_entry(K, key)
            for i, x in col:
                out[i] += x * k
        return tuple(out)

    def kernel_vectors(self) -> list[list[int]]:
        return column_kernel(self.columns, self.nrows)


def phi_map(curve: TropicalCurve) -> PhiMap:
    # the bounded edges are the interior subdivision edges, in key order
    columns: dict[EdgeKey, list[tuple[int, int]]] = {e.key: [] for e in curve.bounded}
    for i, region in enumerate(curve.regions):
        # balance((u,), (-1,)) is -rot90(u) = (u1, -u0)
        for key, (u0, u1) in zip(region.edge_keys, region.fan.rays):
            col = columns[key]
            if u1:
                col.append((2 * i, u1))
            if u0:
                col.append((2 * i + 1, -u0))
    return PhiMap(tuple(columns), tuple(map(tuple, columns.values())), 2 * len(curve.regions))


def divisor_kinks(sub: Subdivision, p: Vec) -> dict[EdgeKey, int]:
    """The class of O(D_p): the kinks of the hat function, 1 at p and 0 at every other point.

    See Cox, Little and Schenck, Toric Varieties, Thm 4.1.3 and 4.2.1.  The hat
    bends by 1 across each interior side ab of a triangle pab, and by s - 2
    across an edge pa between triangles pac and pad, where c + d - 2p = s (a - p).
    Sparse, in key order: every interior edge at p has an entry, zeros included.
    """
    index = checked(sub)
    link = index.link(p)
    px, py = p
    out = {}
    for c, a in link.items():
        key = (c, a) if c < a else (a, c)
        if key not in index.boundary_edges:
            out[key] = 1
        d = link.get(a)
        if d is not None:  # pa is interior, between the triangles pca and pad
            ux, uy = a[0] - px, a[1] - py
            s = (ux * (c[0] + d[0] - 2 * px) + uy * (c[1] + d[1] - 2 * py)) // (ux * ux + uy * uy)
            out[(p, a) if p < a else (a, p)] = s - 2
    return {key: out[key] for key in sorted(out)}


def canonical_KC(region: BoundedRegion) -> dict[EdgeKey, int]:
    """The canonical class of the region's compact surface D_v, as a kink vector.

    On a Calabi-Yau threefold adjunction gives K_{D_v} = O(D_v)|_{D_v}.
    """
    return divisor_kinks(region.curve.sub, region.dual_vertex)
