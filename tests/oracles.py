"""Reference versions of the routines the library now computes sparsely, in integers or itself.

These are the library's earlier implementations.  The library's results
must equal theirs exactly: list for list for the kernel, value for value for
the slopes and kinks, entry for entry and in key order for the canonical
class, pointer and message for the input-document check, and value for
value or message for message for the Fraction twist path (theta, its kinks,
the mirror support, the search box and the slab orders).  The
split-disk rule's per-node and per-piece sums must match up to roundoff, and
the split rule, the kink-line Hessian and the vertex gradient must match the
library's fan rule within the quadrature's error.  The tiling check
decides from the definition what ``validate`` decides from the edges.  A
report's bytes must equal those of ``json.dumps`` on ``encode_exact``'s copy
of its result.  The per-point and sampled checks serve only the tests.

Library names whose only callers were tests live here too, next to those
tests' other oracles: the Fraction solve ``solve_dual``, the per-point ray
cast ``winding`` and the Serre dual ``serre_dual_psi`` among them (the
README lists them all).  ``support_from_kinks``, which rebuilds a function
from its kinks, is the reference for the divisor classes: their
combinations must give back every Picard basis vector.  The Fraction
``fraction_slope`` and ``fraction_kinks`` stand in for the removed
``polytope.slopes`` and ``edge_kinks`` on any values.  ``a2d_KC`` and
``a2d_kappa`` are hand-derived closed forms of the ladder data that
``ext_chains`` reads off the curve.  ``dense_phi_matrix`` and
``sorted_fan_at_vertex`` are the dense balancing rows and the angle sort of
a vertex's fan that ``phi_map`` and ``fan_at_vertex`` replaced;
``one_triangle_edge_keys`` counts each edge's triangles, the count that
``checked(sub).boundary_edges`` replaced in ``divisor_kinks``.
``triangle_dot_divisor_kinks`` reads each triangle at p whole and each spoke's
kink off dot products, as ``divisor_kinks`` did before it walked
``checked(sub).link(p)``, and ``region_check_cocycle`` balances K round each
region's fan, as ``check_cocycle`` did before it read each edge once off the
index; ``triangle_points`` is the removed ``Subdivision.triangle_points``.
``grouped_cone_masses`` and ``grouped_ray_masses`` are the fan rule as it was
before it shared three node buffers per call and summed the first moment only
for ``mollify_eval``: the library's masses, moments and reports must equal
theirs bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import jsonschema
import numpy as np

from tropcoh.io import input_schema
from tropcoh.bundles import canonical_KC
from tropcoh.lattice import (
    LatticeError,
    QVec,
    Vec,
    _xgcd,
    det2,
    dot,
    dual_numerators,
    lex_positive,
    primitive,
    rot90,
    vadd,
    vneg,
    vsub,
)
from tropcoh.cohomology import ToricSupport, canonical_psi
from tropcoh.fan import Fan, balance, is_smooth, make_fan, self_intersections
from tropcoh.lattice import floor_sum
from tropcoh.polytope import (
    EdgeKey, KinkVector, Subdivision, SubdivisionEdge, _slope, checked, convex_hull, edges, interior_edge_keys,
    kink_entry,
)
from tropcoh.smoothing import _chords
from tropcoh.spheres import SemiIntegralSupport, Twisting, _check_twisting, gamma_curve, is_strictly_convex
from tropcoh.tropical import BoundedRegion
from tropcoh.winding import _on_curve, _segments


@lru_cache(maxsize=1)
def _strict_draft7():
    """Draft 7 with "integer" meaning a JSON integer: 2.0 is a float, not an integer."""
    checker = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: type(x) is int
    )
    cls = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=checker)
    return cls(input_schema())


def schema_first_error(raw):
    """(path, message) of jsonschema's first error when sorted by path, or None if it accepts."""
    errors = sorted(_strict_draft7().iter_errors(raw), key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def encode_exact(value):
    """Ints stay ints; non-integral rationals become "p/q" strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(k): encode_exact(v) for k, v in value.items()}
    if isinstance(value, Sequence):
        return [encode_exact(v) for v in value]
    if value is None:
        return None
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def dense_integer_kernel(rows, ncols: int) -> list[list[int]]:
    """Column echelon over dense lists, every column of every row visited."""
    nrows = len(rows)
    if any(len(r) != ncols for r in rows):
        raise LatticeError("ragged matrix")

    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    trans = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]

    def combine(j0, j1, a, b, c, d):
        for mat in (cols, trans):
            x, y = mat[j0], mat[j1]
            mat[j0] = [a * xi + b * yi for xi, yi in zip(x, y)]
            mat[j1] = [c * xi + d * yi for xi, yi in zip(x, y)]

    pivot = 0
    for r in range(nrows):
        lead = None
        for j in range(pivot, ncols):
            if cols[j][r] == 0:
                continue
            if lead is None:
                lead = j
                continue
            a, b = cols[lead][r], cols[j][r]
            g, x, y = _xgcd(a, b)
            combine(lead, j, x, y, -(b // g), a // g)
        if lead is not None:
            cols[pivot], cols[lead] = cols[lead], cols[pivot]
            trans[pivot], trans[lead] = trans[lead], trans[pivot]
            pivot += 1
    return [list(trans[j]) for j in range(pivot, ncols)]


def dense_phi_matrix(curve) -> tuple[tuple[int, ...], ...]:
    """The balancing map as dense rows: region i's rows 2i and 2i + 1 send K to balance(fan.rays, -K)."""
    order = tuple(e.key for e in curve.bounded)
    col = {key: i for i, key in enumerate(order)}
    rows = []
    for region in curve.regions:
        rx = [0] * len(order)
        ry = [0] * len(order)
        for key, u in zip(region.edge_keys, region.fan.rays):
            rx[col[key]], ry[col[key]] = balance((u,), (-1,))
        rows.append(tuple(rx))
        rows.append(tuple(ry))
    return tuple(rows)


def triangle_points(sub: Subdivision, t: int) -> tuple[Vec, Vec, Vec]:
    i, j, k = sub.triangles[t]
    return (sub.points[i], sub.points[j], sub.points[k])


def triangle_dot_divisor_kinks(sub: Subdivision, p: Vec) -> dict[EdgeKey, int]:
    """The library's earlier divisor_kinks: each triangle pab at p read whole, and the kink
    across a spoke pa between pac and pad read off dot products, with c + d - 2p = s (a - p)."""
    index = checked(sub)
    out = {}
    across: dict[Vec, list[Vec]] = {}  # each neighbour a of p to the third vertices on pa
    for t in index.stars[p]:
        a, b = (q for q in triangle_points(sub, t) if q != p)
        key = (a, b) if a < b else (b, a)
        if key not in index.boundary_edges:
            out[key] = 1
        across.setdefault(a, []).append(b)
        across.setdefault(b, []).append(a)
    for a, third in across.items():
        if len(third) == 2:
            u, w = vsub(a, p), vsub(vsub(vadd(*third), p), p)
            out[min(p, a), max(p, a)] = dot(w, u) // dot(u, u) - 2
    return {key: out[key] for key in sorted(out)}


def region_check_cocycle(curve, K: KinkVector) -> None:
    """The library's earlier check_cocycle: K balanced round each region's fan, in region order."""
    for region in curve.regions:
        if balance(region.fan.rays, [kink_entry(K, key) for key in region.edge_keys]) != (0, 0):
            raise LatticeError(f"not a cocycle: inconsistent around region {region.dual_vertex}")


def sorted_fan_at_vertex(sub: Subdivision, v: Vec) -> Fan:
    """The fan at an interior vertex, its star's directions sorted by angle with make_fan."""
    index = checked(sub)
    if v not in index.interior_vertices:
        raise LatticeError(f"{v} is not an interior vertex")
    dirs = set()
    for t in index.stars[v]:
        dirs.update(vsub(p, v) for p in triangle_points(sub, t) if p != v)
    return make_fan(dirs)


def one_triangle_edge_keys(sub: Subdivision) -> set[EdgeKey]:
    """The keys of the edges that lie in exactly one triangle, counted over every triangle."""
    count = Counter()
    for t in range(len(sub.triangles)):
        a, b, c = triangle_points(sub, t)
        count.update((min(p, q), max(p, q)) for p, q in ((a, b), (b, c), (c, a)))
    return {key for key, n in count.items() if n == 1}


def solve_dual(u: Vec, v: Vec, a, b) -> QVec:
    """The covector m with <m, u> = a and <m, v> = b, in Fractions."""
    d = det2(u, v)
    if d == 0:
        raise LatticeError("singular system")
    m = dual_numerators(u, v, a, b)
    return (Fraction(m[0], d), Fraction(m[1], d))


def fraction_slope(sub, values, t: int) -> tuple[Fraction, Fraction]:
    """Slope of the interpolant on triangle t by an exact Fraction 2x2 solve."""
    i0, i1, i2 = sub.triangles[t]
    v0, v1, v2 = sub.points[i0], sub.points[i1], sub.points[i2]
    f0, f1, f2 = Fraction(values[i0]), Fraction(values[i1]), Fraction(values[i2])
    return solve_dual(vsub(v1, v0), vsub(v2, v0), f1 - f0, f2 - f0)


def fraction_kinks(sub, values) -> dict:
    """Kink of each interior edge from two Fraction solves, in edge order.

    The slope jump must be a multiple of n_e; the kink is read off one
    nonzero coordinate of n_e, not projected onto it.
    """
    out = {}
    for e in edges(sub):
        if e.is_boundary:
            continue
        m_plus = fraction_slope(sub, values, e.plus_triangle)
        m_minus = fraction_slope(sub, values, e.minus_triangle)
        delta = vsub(m_plus, m_minus)
        n_e = rot90(primitive(vsub(e.b, e.a)))
        if delta[0] * n_e[1] != delta[1] * n_e[0]:
            raise ValueError(f"slope jump {delta} across {e.key} is not along {n_e}")
        out[e.key] = Fraction(delta[0], n_e[0]) if n_e[0] else Fraction(delta[1], n_e[1])
    return out


def opposite_vertex_sides(sub, key, tris) -> tuple[int, int | None, Vec]:
    """(plus triangle, minus triangle, normal) of an edge by the opposite-vertex rule.

    With n_e rot90 of the primitive direction of b - a, a triangle is on the
    plus side when its vertex c off the edge has dot(n_e, c - a) > 0.  A
    boundary edge's one triangle is its plus triangle, and its normal is the
    one of +-n_e towards c.
    """
    a, b = key
    n_e = rot90(primitive(vsub(b, a)))
    on_plus = {}
    for t in tris:
        c = next(p for p in triangle_points(sub, t) if p not in key)
        on_plus[t] = dot(n_e, vsub(c, a)) > 0
    if len(tris) == 1:
        t = tris[0]
        return t, None, n_e if on_plus[t] else vneg(n_e)
    plus = next(t for t in tris if on_plus[t])
    minus = next(t for t in tris if not on_plus[t])
    return plus, minus, n_e


def is_tiling(points, triangles) -> bool:
    """Whether the triangles tile P = conv(points), decided from the definition.

    Every triangle is elementary, the interiors of no two meet (some side of
    one has the other weakly on its far side), the areas add up to P's, and
    the vertices of the triangles are exactly the listed points.
    """
    corners = []
    for i, j, k in triangles:
        a, b, c = points[i], points[j], points[k]
        d = det2(vsub(b, a), vsub(c, a))
        if abs(d) != 1:
            return False
        corners.append((a, b, c) if d > 0 else (a, c, b))

    def separated(s, t):
        return any(
            all(det2(vsub(q, p), vsub(x, p)) <= 0 for x in t)
            for p, q in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0]))
        )

    if not all(separated(s, t) or separated(t, s) for s, t in combinations(corners, 2)):
        return False
    return len(corners) == normalized_area(points) and {p for t in corners for p in t} == set(points)


def affine_part(sub: Subdivision, values: Sequence, t: int) -> tuple[QVec, Fraction | int]:
    """Exact (slope, constant) of the affine interpolant on triangle t."""
    i0, i1, i2 = sub.triangles[t]
    p0 = sub.points[i0]
    m = _slope(p0, sub.points[i1], sub.points[i2], values[i0], values[i1], values[i2])
    return m, values[i0] - dot(m, p0)


def support_from_kinks(K: KinkVector, sub: Subdivision) -> tuple[int, ...]:
    """The values at the points of the function with kinks K that is 0 on the base triangle.

    The base triangle is the least by its sorted vertices.  A walk from it
    crosses each interior edge, stepping the linear part by the kink times
    the edge's normal.  K must be a cocycle: nothing here checks that.
    """
    base = min(range(len(sub.triangles)), key=lambda t: tuple(sorted(triangle_points(sub, t))))
    parts: dict[int, tuple[Vec, int]] = {base: ((0, 0), 0)}
    queue = [base]
    adjacent: dict[int, list[SubdivisionEdge]] = {}
    for e in edges(sub):
        if not e.is_boundary:
            adjacent.setdefault(e.plus_triangle, []).append(e)
            adjacent.setdefault(e.minus_triangle, []).append(e)
    while queue:
        t = queue.pop(0)
        m, c = parts[t]
        for e in adjacent.get(t, []):
            k = kink_entry(K, e.key)
            if t == e.plus_triangle:
                other, step = e.minus_triangle, -k
            else:
                other, step = e.plus_triangle, k
            if other not in parts:
                m2 = (m[0] + step * e.normal[0], m[1] + step * e.normal[1])
                parts[other] = (m2, c + dot(vsub(m, m2), e.a))
                queue.append(other)
    values = [0] * len(sub.points)
    for t, tri in enumerate(sub.triangles):
        m, c = parts[t]
        for i in tri:
            values[i] = dot(m, sub.points[i]) + c
    return tuple(values)


def restriction_degree(K: KinkVector, edge: SubdivisionEdge) -> int:
    """Twist of the bundle along the projective line dual to an interior edge."""
    if edge.is_boundary:
        raise LatticeError("no compact curve")
    return kink_entry(K, edge.key)


def compact_support_class(K: KinkVector, region: BoundedRegion) -> int | None:
    """The multiple a with K = a * K_C when one exists."""
    kc = canonical_KC(region)
    keys = interior_edge_keys(region.curve.sub)
    a = None
    for key in keys:
        base = kc.get(key, 0)
        if base != 0:
            val = kink_entry(K, key)
            if val % base != 0:
                return None
            a = val // base
            break
    if a is None:
        a = 0
    for key in keys:
        if kink_entry(K, key) != a * kc.get(key, 0):
            return None
    return a


def wedge_canonical_KC(region: BoundedRegion) -> dict[EdgeKey, int]:
    """The library's earlier canonical_KC, from the wedge triangles and self-intersections.

    Each wedge triangle's side opposite the centre v carries kink 1 when it is
    interior, and the region's edge j carries -b_j - 2, with b_j the
    self-intersection of the curve D_j on the compact surface; in key order.
    """
    sub, v = region.curve.sub, region.dual_vertex
    tris = [triangle_points(sub, t) for t in range(len(sub.triangles))]
    sides = Counter(tuple(sorted(side)) for pts in tris for side in combinations(pts, 2))
    out = {}
    for pts in tris:
        key = tuple(sorted(p for p in pts if p != v))
        # a wedge triangle leaves two points once v is dropped
        if len(key) == 2 and sides[key] == 2:
            out[key] = 1
    b = self_intersections(region.fan)
    for j, key in enumerate(region.edge_keys):
        out[key] = -b[j] - 2
    return {key: out[key] for key in sorted(out)}


def region_cycle(region: BoundedRegion) -> tuple[QVec, ...]:
    """The library's earlier BoundedRegion.cycle: the region's polygon, by a walk over the wedges.

    It lists the dual vertices of the wedge triangles counterclockwise, so
    the region's edge j runs from cycle[j-1] to cycle[j] along -rot90(u_j).
    """
    curve, v = region.curve, region.dual_vertex
    # each wedge triangle, by its two rays counterclockwise, to its dual vertex
    wedge_vertex = {}
    for t in curve.index.stars[v]:
        d1, d2 = (vsub(p, v) for p in triangle_points(curve.sub, t) if p != v)
        if det2(d1, d2) < 0:
            d1, d2 = d2, d1
        wedge_vertex[d1, d2] = curve.vertices[t]
    # each ray of the fan at v opens exactly one counterclockwise wedge
    rays = region.fan.rays
    return tuple(wedge_vertex[rays[j], rays[(j + 1) % len(rays)]] for j in range(len(rays)))


def index_of(fan: Fan, u: Vec) -> int:
    try:
        return fan.rays.index(u)
    except ValueError:
        raise LatticeError(f"{u} is not a ray of the fan") from None


def serre_dual_psi(psi: ToricSupport) -> ToricSupport:
    """K - psi, the support of the Serre dual bundle."""
    kc = canonical_psi(psi.fan)
    parts = tuple(
        (k[0] - p[0], k[1] - p[1]) for k, p in zip(kc.parts, psi.parts)
    )
    return ToricSupport(psi.fan, parts)


def a2d_KC(j: int) -> tuple[int, int, int, int, int]:
    """The canonical class of the j-th a2d surface, by hand: entries on the edges
    to the neighbours in directions (-1,0), (0,-1), (1,-1), (1,0) and (-j,1)."""
    return (j - 2, -1, -1, -j - 1, -2)


def a2d_kappa(j: int) -> tuple[int, int, int, int, int]:
    """(a2d_KC(j) - ell) / 2 for the twisting ``ext_chains`` chooses on surface j."""
    if j % 2 == 1:
        return ((j - 1) // 2, -1, 0, -(j + 1) // 2, -1)
    return ((j - 2) // 2, 0, -1, -j // 2, -1)


@dataclass(frozen=True)
class BFEExpression:
    """Formal combination b*B + f*F + e*E of the three divisor generators."""

    b: int
    f: int
    e: int

    def __str__(self):
        out = []
        for coeff, name in ((self.b, "B"), (self.f, "F"), (self.e, "E")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if out else "")
            mag = abs(coeff)
            head = f"{sign} " if out else sign
            out.append(f"{head}{'' if mag == 1 else mag}{name}")
        return " ".join(out) if out else "0"


def express_in_BFE(kappa_j, j: int) -> BFEExpression:
    """Divisor expression of a ladder twist class on the j-th surface.

    Verified against the pairing rules B*B=-j, F*F=0, E*E=-1, B*F=1,
    E*B=E*F=0: the first, fifth, and third entries of kappa_j must be the
    pairings with B, F, and E.
    """
    kappa_j = tuple(kappa_j)
    if j % 2 == 1:
        expr = BFEExpression(-1, -(j + 1) // 2, 0)
    else:
        expr = BFEExpression(-1, -(j + 2) // 2, 1)
    dot_B = expr.b * (-j) + expr.f * 1
    dot_F = expr.b * 1
    dot_E = expr.e * (-1)
    if (kappa_j[0], kappa_j[4], kappa_j[2]) != (dot_B, dot_F, dot_E):
        raise LatticeError("expression disagrees with the intersection pairings")
    return expr


def normalized_area(points) -> int:
    """Twice the area of conv(points): the number of elementary triangles in a tiling."""
    hull = convex_hull(points)
    return sum(det2(vsub(hull[i], hull[0]), vsub(hull[i + 1], hull[0])) for i in range(1, len(hull) - 1))


def euler_characteristic(sub: Subdivision) -> int:
    return len(sub.points) - len(edges(sub)) + len(sub.triangles)


@dataclass(frozen=True)
class TropicalFunction:
    """m maps to the minimum of <v, m> + c over the stored terms."""

    terms: tuple[tuple[Vec, Fraction], ...]

    def __call__(self, m) -> Fraction:
        return min(Fraction(v[0]) * m[0] + Fraction(v[1]) * m[1] + c for v, c in self.terms)


def legendre(sub: Subdivision) -> TropicalFunction:
    return TropicalFunction(tuple((p, Fraction(c)) for p, c in zip(sub.points, sub.nu)))


def ray_cast(doubled: tuple[Vec, ...], m: Vec) -> int:
    """Signed crossings of the rightward horizontal ray from the lattice point m."""
    x, y = 2 * m[0], 2 * m[1]
    # the half-open rule below gives a vertex at a local maximum of y to no segment
    if (x, y) in doubled:
        raise _on_curve(m)
    w = 0
    n = len(doubled)
    for i in range(n):
        ax, ay = doubled[i - 1]
        bx, by = doubled[i]
        if ay == by:
            if ay == y and min(ax, bx) <= x <= max(ax, bx):
                raise _on_curve(m)
            continue
        up = ay <= y < by
        down = by <= y < ay
        if not (up or down):
            continue
        d = by - ay
        num = (ax - x) * d + (y - ay) * (bx - ax)
        if num == 0:
            raise _on_curve(m)
        if (num > 0) == (d > 0):
            w += 1 if up else -1
    return w


def winding(gamma, m: Vec) -> int:
    """Winding number of the GammaCurve gamma about the lattice point m, by one ray cast."""
    return ray_cast(gamma.doubled, m)


def convex_intersection_count(theta: SemiIntegralSupport) -> int:
    if is_strictly_convex(theta) == "neither":
        raise LatticeError("convexity required")
    verts = gamma_curve(theta).doubled
    r = len(verts)
    area2 = sum(det2(verts[j - 1], verts[j]) for j in range(r))
    if area2 <= 0:
        raise LatticeError("boundary curve must run counterclockwise")
    xmin = -(-min(v[0] for v in verts) // 2)
    xmax = max(v[0] for v in verts) // 2
    ymin = -(-min(v[1] for v in verts) // 2)
    ymax = max(v[1] for v in verts) // 2
    count = 0
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            p = (2 * x, 2 * y)
            inside = True
            for j in range(r):
                a, b = verts[j - 1], verts[j]
                if det2((b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])) < 0:
                    inside = False
                    break
            if inside:
                count += 1
    return count


# ------------------------------------------------------ the split-disk rule


def fan_walls(f) -> list[tuple[float, float, float]]:
    """Kink lines a*x + b*y + c = 0 of a FanPL, one per line through its rays; (a, b) is a unit normal."""
    out = []
    for k in dict.fromkeys(lex_positive(u) for u in f.theta.fan.rays):
        a, b = -k[1], k[0]
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        n = math.hypot(a, b)
        out.append((a / n, b / n, 0.0))
    return out


def fan_pl_gradient(f, pts: np.ndarray) -> np.ndarray:
    """Linear part of the cone of the FanPL f containing each point."""
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    a0 = f._angles[0]
    ang = a0 + np.mod(ang - a0, 2 * math.pi)
    idx = np.clip(np.searchsorted(f._angles, ang, side="right") - 1, 0, len(f._angles) - 1)
    return f._parts[idx]


def fan_pl_value(f, pts: np.ndarray) -> np.ndarray:
    """The FanPL f at each point."""
    parts = fan_pl_gradient(f, pts)
    return parts[:, 0] * pts[:, 0] + parts[:, 1] * pts[:, 1]


def spot_check_continuity(f, span: float = 2.0, count: int = 40) -> float:
    """Largest value gap across the kink lines of a FanPL at sampled wall points."""
    worst = 0.0
    for a, b, c in fan_walls(f):
        # points on the wall, offset to both sides along the normal
        t = np.linspace(-span, span, count)
        base = np.stack([-c * a + t * (-b), -c * b + t * a], axis=1)
        for s in (1.0, -1.0):
            side = base + s * 1e-9 * np.array([a, b])
            vals = fan_pl_value(f, side)
            ref = fan_pl_value(f, base - s * 1e-9 * np.array([a, b]))
            worst = max(worst, float(np.max(np.abs(vals - ref))))
    return worst


_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


# Most split-rule nodes built at once: a whole sample at order 24 (at most
# about 23k nodes) is one group, while at order 300 each strip is its own.
SPLIT_GROUP_NODES = 1 << 15


def split_rule(lines, eps: float, order: int):
    """Gauss-Legendre rule on the disk |y| < eps split at lines a*y1 + b*y2 = d.

    The disk is cut into strips in y2 at every horizontal line, rim crossing
    and crossing of two lines, and each row of a strip into pieces in y1
    where it crosses the other lines, so no piece meets a line.  Yields
    groups of whole strips as arrays over (rows, pieces, order): piece
    midpoints (..., 2), nodes (y1, y2), W * mu and W * grad mu as (y1, y2) parts.
    """
    gx, gw = _leggauss(order)
    cuts = set()
    for a, b, d in lines:
        if abs(a) < 1e-14:
            cuts.add(d / b)
        else:
            # crossings with the disk rim
            disc = eps * eps * (a * a + b * b) - d * d
            if disc > 0:
                root = a * math.sqrt(disc)
                base = b * d
                s2 = a * a + b * b
                cuts.add((base + root) / s2)
                cuts.add((base - root) / s2)
    for i, (a1, b1, d1) in enumerate(lines):
        for a2, b2, d2 in lines[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-14:
                continue
            cuts.add((a1 * d2 - a2 * d1) / det)
    ts = sorted(t for t in cuts if -eps + 1e-13 < t < eps - 1e-13)
    bounds = [-eps]
    for t in ts:
        if t - bounds[-1] > 1e-13:
            bounds.append(t)
    bounds.append(eps)
    los, his = np.array(bounds[:-1]), np.array(bounds[1:])

    a, b, d = np.array([w for w in lines if abs(w[0]) >= 1e-14]).reshape(-1, 3).T
    step = max(1, SPLIT_GROUP_NODES // (order * order * (len(a) + 1)))
    for k in range(0, len(los), step):
        lo, hi = los[k : k + step], his[k : k + step]
        T = ((lo + hi)[:, None] / 2 + (hi - lo)[:, None] / 2 * gx).ravel()
        WT = ((hi - lo)[:, None] / 2 * gw).ravel()
        S = np.sqrt(np.maximum(eps * eps - T * T, 0.0))[:, None]
        crossings = np.clip((d - b * T[:, None]) / a, -S, S)
        edges_y1 = np.sort(np.concatenate([-S, crossings, S], axis=1), axis=1)
        mid1 = (edges_y1[:, :-1] + edges_y1[:, 1:]) / 2
        half1 = (edges_y1[:, 1:] - edges_y1[:, :-1]) / 2
        Y1 = mid1[..., None] + half1[..., None] * gx
        Y2 = np.broadcast_to(T[:, None, None], Y1.shape)
        r2 = Y1 * Y1 + (T * T)[:, None, None]
        ok = r2 < eps * eps * (1 - 1e-15)
        inv = 1.0 / np.where(ok, r2 - eps * eps, -1.0)
        wmu = np.where(ok, (WT[:, None] * half1)[..., None] * gw * np.exp(inv), 0.0)
        dmu = -2.0 * wmu * inv * inv
        yield np.stack([mid1, Y2[..., 0]], axis=-1), (Y1, Y2), wmu, (dmu * Y1, dmu * Y2)


@lru_cache(maxsize=None)
def _split_disk_mass(eps: float, order: int) -> float:
    return sum(float(np.sum(wmu)) for _, _, wmu, _ in split_rule([], eps, order))


def split_smoothing(f, p, x, pointwise: bool = False):
    """Value, gradient and Hessian of the smoothed FanPL at x by the split rule.

    No piece meets a wall, so f is theta_P . z on each piece P and, with M_P,
    Y_P and D_P the sums of W mu, W mu y and W grad mu over its nodes,

        F = sum_P theta_P . (x M_P - Y_P) / Z,  grad F = sum_P theta_P M_P / Z,
        d_i d_j F = sum_P (D_j)_P (theta_P)_i / Z,

    with grad f read once per piece, at its midpoint.  With pointwise, f and
    grad f are read at every node instead.  "quadrature order too low" when
    the mass on the pieces differs from the same rule's mass on the unsplit
    disk by more than 1e-6 (relative): the pieces are too thin for the order.
    """
    eps, order = float(p.epsilon), int(p.quadrature_order)
    x = np.array([float(x[0]), float(x[1])])
    lines = [(a, b, a * x[0] + b * x[1] + c) for a, b, c in fan_walls(f)]
    value = den = 0.0
    grad, m = np.zeros(2), np.zeros((2, 2))
    for mid, (y1, y2), wmu, (d1, d2) in split_rule([w for w in lines if abs(w[2]) <= eps + 1e-12], eps, order):
        if pointwise:
            z = x - np.stack([y1.ravel(), y2.ravel()], axis=1)
            weights, dweights, parts = wmu.ravel(), np.stack([d1.ravel(), d2.ravel()], axis=1), fan_pl_gradient(f, z)
            value += float(weights @ fan_pl_value(f, z))
        else:
            mass = wmu.sum(axis=2)
            # y2 is constant along a row
            first = np.stack([np.einsum("rpk,rpk->rp", wmu, y1), mass * mid[..., 1]], axis=-1).reshape(-1, 2)
            weights = mass.ravel()
            dweights = np.stack([d1.sum(axis=2), d2.sum(axis=2)], axis=-1).reshape(-1, 2)
            parts = fan_pl_gradient(f, x - mid.reshape(-1, 2))
            value += float(np.sum(parts * (weights[:, None] * x - first)))
        den += float(np.sum(weights))
        grad += weights @ parts
        m += dweights.T @ parts
    disk = _split_disk_mass(eps, order)
    if abs(den - disk) > 1e-6 * disk:
        raise LatticeError(f"quadrature order too low: at order {order}, the pieces' mass is off the disk's")
    m /= den
    return value / den, tuple((grad / den).tolist()), tuple(map(tuple, ((m + m.T) / 2).tolist()))


def split_wall_weights(f, p, points):
    """smoothing._wall_weights by the oracles, one point at a time: the gradients by the
    split rule and the Hessian's weights by the kink-line form, both at the rule's order."""
    eps, order = float(p.epsilon), int(p.quadrature_order)
    grads = [split_smoothing(f, p, x)[1] for x in points]
    weights = [[np.dot(d, n) * line for d, n, line in _wall_lines(f.theta, eps, x, order)] for x in points]
    return np.array(grads), np.array(weights)


def polar_disk_mass(eps, order=400) -> float:
    """Z = 2 pi int_0^eps mu(r) r dr by one-dimensional Gauss-Legendre."""
    gx, gw = _leggauss(order)
    r = eps * (gx + 1) / 2
    return float(np.sum(eps / 2 * gw * np.exp(1 / (r * r - eps * eps)) * 2 * math.pi * r))


def _wall_lines(theta, eps, x, order):
    """For each ray j that meets the disk about x: D_j = theta_j - theta_{j-1}, the unit
    normal n_j = rot90(u_j) / |u_j|, and int of mu along the ray inside the disk over Z,
    by one-dimensional Gauss-Legendre for the chord and for Z in polar form."""
    gx, gw = _leggauss(order)
    z = polar_disk_mass(eps, order)
    x = np.asarray(x, dtype=float)
    thetas = [np.array([float(t[0]), float(t[1])]) for t in theta.thetas]
    out = []
    for j, u in enumerate(theta.fan.rays):
        u = np.asarray(u, dtype=float) / math.hypot(*u)
        # chord {s u : s >= 0, |x - s u| < eps}
        b, c = float(x @ u), float(x @ x) - eps * eps
        root = math.sqrt(max(b * b - c, 0.0))
        lo, hi = max(0.0, b - root), b + root
        line = 0.0
        if root > 0 and hi > lo:
            s = lo + (hi - lo) * (gx + 1) / 2
            y = x - s[:, None] * u
            gap = np.minimum(np.sum(y * y, axis=1) - eps * eps, -1e-300)
            line = float(np.sum((hi - lo) / 2 * gw * np.exp(1 / gap)))
        out.append((thetas[j] - thetas[j - 1], np.array([-u[1], u[0]]), line / z))
    return out


def wall_form_hessian(theta, eps, x, order=400):
    """Hessian of the smoothed fan support from its kinks alone.

    The gradient of the fan support jumps by D_j = theta_j - theta_{j-1}
    across ray j, in the direction n_j = rot90(u_j), so its distributional
    Hessian is sum_j D_j n_j^T times the line measure on ray j.  Smoothing
    gives sum_j D_j n_j^T (int of mu along the ray inside the disk) / Z.
    """
    return sum((np.outer(d, n) * line for d, n, line in _wall_lines(theta, eps, x, order)), np.zeros((2, 2)))


def vertex_gradient(theta) -> tuple[float, float]:
    """Gradient of the smoothed fan support at the fan vertex: sum_j theta_j alpha_j / 2 pi.

    The bump is radial, so each cone holds the share alpha_j / 2 pi of its
    mass, alpha_j being the angle of the cone from ray j to ray j + 1.
    """
    rays = theta.fan.rays
    total = [0.0, 0.0]
    for j, t in enumerate(theta.thetas):
        u, v = rays[j], rays[(j + 1) % len(rays)]
        alpha = math.atan2(det2(u, v), dot(u, v)) % (2 * math.pi)
        total = [total[0] + float(t[0]) * alpha, total[1] + float(t[1]) * alpha]
    return total[0] / (2 * math.pi), total[1] / (2 * math.pi)


# The fan rule's group size, as the library has it: the grouped rule below
# must match it bit for bit, group for group.
GROUPED_NODES = 1 << 15


def _grouped_bump_on_chords(s0, s1, lo, gx, gw):
    """Nodes s and W * mu on [lo, s1] of chords with ends s0 <= lo, s1, as (chords, 2 * order)."""
    mid = np.maximum((s0 + s1) / 2, lo)
    ends = np.stack([lo, mid, mid, s1], axis=1).reshape(-1, 2, 2)
    half = (ends[:, :, 1] - ends[:, :, 0]) / 2
    s = (ends[:, :, 0] + half)[..., None] + half[..., None] * gx
    w = s - s0[:, None, None]
    w *= s - s1[:, None, None]
    np.minimum(w, -1e-300, out=w)
    np.reciprocal(w, out=w)
    np.exp(w, out=w)
    w *= gw
    w *= half[..., None]
    return s.reshape(len(s0), -1), w.reshape(len(s0), -1)


def _grouped_radial_moments(s0, s1, gx, gw):
    """Sums of W * mu * rho and W * mu * rho^2 over the part rho >= 0 of each chord."""
    s, w = _grouped_bump_on_chords(s0, s1, np.maximum(s0, 0.0), gx, gw)
    first = np.einsum("ij,ij->i", s, w)
    w *= s
    return first, np.einsum("ij,ij->i", s, w)


def grouped_cone_masses(f, x, eps: float, order: int):
    """The fan rule's bump mass and first moment over each cone, as (points, rays) and
    (points, rays, 2), with fresh node arrays for every group and both sums always."""
    gx, gw = _leggauss(order)
    a0 = f._angles[0]
    bounds = np.append(f._angles, a0 + 2 * math.pi)
    r = len(f._angles)
    rad = np.hypot(x[:, 0], x[:, 1])
    half = np.where(rad < eps, math.pi, np.arcsin(eps / np.maximum(rad, eps)))
    lo = np.where(rad < eps, a0, a0 + np.mod(np.arctan2(x[:, 1], x[:, 0]) - half - a0, 2 * math.pi))
    cone_lo = np.concatenate([bounds[:-1], bounds[:-1] + 2 * math.pi])
    cone_hi = np.concatenate([bounds[1:], bounds[1:] + 2 * math.pi])
    a = np.maximum(lo[:, None], cone_lo)
    b = np.minimum((lo + 2 * half)[:, None], cone_hi)
    pt, k = np.nonzero(b > a)
    a, b, slot = a[pt, k], b[pt, k], pt * r + k % r

    mass = np.zeros(len(x) * r)
    moment = np.zeros((2, len(x) * r))
    step = max(1, GROUPED_NODES // (2 * order))
    for start in range(0, len(pt) * order, step):
        i, g = np.divmod(np.arange(start, min(start + step, len(pt) * order)), order)
        phi = (a[i] + b[i]) / 2 + (b[i] - a[i]) / 2 * gx[g]
        e = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        first, second = _grouped_radial_moments(*_chords(x[pt[i]], e, eps), gx, gw)
        weight = (b[i] - a[i]) / 2 * gw[g]
        first *= weight
        mass += np.bincount(slot[i], weights=first, minlength=len(mass))
        second *= weight
        for c in (0, 1):
            moment[c] += np.bincount(slot[i], weights=second * e[:, c], minlength=len(mass))
    return mass.reshape(-1, r), moment.T.reshape(-1, r, 2)


def grouped_ray_masses(f, x, eps: float, order: int):
    """The fan rule's line mass of the bump on each ray, with fresh node arrays for every group."""
    gx, gw = _leggauss(order)
    r = len(f._units)
    e = np.tile(f._units, (len(x), 1))
    s0, s1 = _chords(np.repeat(x, r, axis=0), e, eps)
    lo = np.maximum(s0, 0.0)
    (hit,) = np.nonzero(s1 > lo)
    out = np.zeros(len(e))
    step = max(1, GROUPED_NODES // (2 * order))
    for start in range(0, len(hit), step):
        h = hit[start : start + step]
        out[h] = np.sum(_grouped_bump_on_chords(s0[h], s1[h], lo[h], gx, gw)[1], axis=1)
    return out.reshape(-1, r)


# ------------------------------------------------- the twist path in Fractions


def _half(x: Fraction) -> bool:
    return (2 * x).denominator == 1 and (2 * x).numerator % 2 == 1


def fraction_assert_semi_integral(fan: Fan, thetas) -> None:
    r = len(fan.rays)
    for j in range(r):
        for k in (j, (j + 1) % r):
            x = dot(thetas[j], fan.rays[k])
            if not _half(x):
                raise LatticeError(f"cone {j}: theta pairs to {x} with ray {k}, not to a half-odd integer")


def fraction_canonical_seed(fan: Fan):
    u0, u1 = fan.rays[0], fan.rays[1]
    d0 = solve_dual(u0, u1, Fraction(1), Fraction(0))
    d1 = solve_dual(u0, u1, Fraction(0), Fraction(1))
    return ((d0[0] + d1[0]) / 2 % 1, (d0[1] + d1[1]) / 2 % 1)


def fraction_theta_from_twisting(tw: Twisting) -> SemiIntegralSupport:
    """Check, then step theta_j = theta_{j-1} + (ell_j / 2) rot90(u_j) in Fractions."""
    fan = tw.fan
    _check_twisting(tw.ell, fan)
    r = len(fan.rays)
    thetas = [fraction_canonical_seed(fan)]
    for j in range(1, r):
        step = rot90(fan.rays[j])
        half = Fraction(tw.ell[j], 2)
        prev = thetas[-1]
        thetas.append((prev[0] + half * step[0], prev[1] + half * step[1]))
    step = rot90(fan.rays[0])
    half = Fraction(tw.ell[0], 2)
    closed = (thetas[-1][0] + half * step[0], thetas[-1][1] + half * step[1])
    if closed != thetas[0]:
        raise LatticeError(f"twisting numbers {tw.ell} do not close up around the fan")
    fraction_assert_semi_integral(fan, thetas)
    return SemiIntegralSupport(fan, tuple((int(2 * x), int(2 * y)) for x, y in thetas))


def fraction_kinks_of_theta(theta: SemiIntegralSupport) -> tuple[int, ...]:
    fan = theta.fan
    ell = []
    for j in range(len(fan.rays)):
        delta = vsub(theta.thetas[j], theta.thetas[j - 1])
        if dot(delta, fan.rays[j]) != 0:
            raise LatticeError("not a support function on Σ_C")
        step = rot90(fan.rays[j])
        two = 2 * (delta[0] / step[0] if step[0] != 0 else delta[1] / step[1])
        if two.denominator != 1:
            raise LatticeError("not a support function on Σ_C")
        ell.append(int(two))
    return tuple(ell)


def fraction_psi_from_ray_values(fan: Fan, values) -> ToricSupport:
    if not is_smooth(fan):
        raise LatticeError("fan not smooth")
    if len(values) != len(fan.rays):
        raise LatticeError("one value per ray required")
    r = len(fan.rays)
    parts = []
    for j in range(r):
        part = solve_dual(fan.rays[j], fan.rays[(j + 1) % r], values[j], values[(j + 1) % r])
        parts.append((int(part[0]), int(part[1])))
    return ToricSupport(fan, tuple(parts))


def fraction_psi_from_theta(theta: SemiIntegralSupport) -> ToricSupport:
    kc = fraction_psi_from_ray_values(theta.fan, (-1,) * len(theta.fan.rays))
    parts = []
    for half, th in zip(kc.parts, theta.thetas):
        x, y = Fraction(half[0], 2) - th[0], Fraction(half[1], 2) - th[1]
        if x.denominator != 1 or y.denominator != 1:
            raise LatticeError("parity violated")
        parts.append((int(x), int(y)))
    return ToricSupport(theta.fan, tuple(parts))


def fraction_search_box(fan: Fan, coeffs, margin: int) -> tuple[int, int, int, int]:
    xs, ys = [], []
    for (i, u), (j, v) in combinations(enumerate(fan.rays), 2):
        if det2(u, v) == 0:
            continue
        m = solve_dual(u, v, -coeffs[i], -coeffs[j])
        xs.append(m[0])
        ys.append(m[1])
    if not xs:
        raise LatticeError("a complete fan has crossing level lines")
    pad = 1 + margin
    return (
        math.floor(min(xs)) - pad,
        math.floor(min(ys)) - pad,
        math.ceil(max(xs)) + pad,
        math.ceil(max(ys)) + pad,
    )


def fraction_slab_thresholds(lines, a: int, b: int) -> list[tuple[int, int]]:
    """lattice.slab_thresholds ordered by the Fraction value at the middle row."""
    n = b - a + 1
    order = []
    for j, (y0, y1, n0, n1, den) in enumerate(lines):
        if y0 <= a and b <= y1:
            total = -floor_sum(n, den, -n1, -n0 - n1 * a)
            order.append((Fraction(2 * n0 + n1 * (a + b), 2 * den), j, total))
    order.sort()
    return [(total, j) for _, j, total in order]


def check_rows_off_curve(gamma) -> None:
    """Raise for the first lattice point on gamma, row by row: the winding sweep's old per-row check.

    On each row, in segment order, a crossing x_c = (n0 + n1 y) / den that
    is an integer is a lattice point on the curve.  This detector is
    independent of winding._check_off_curve, which solves one linear
    congruence per segment instead.
    """
    lines, _ = _segments(gamma)
    for y in sorted({y for y0, y1, *_ in lines for y in range(y0, y1 + 1)}):
        for y0, y1, n0, n1, den in lines:
            if y0 <= y <= y1:
                q, rem = divmod(n0 + n1 * y, den)
                if rem == 0:
                    raise _on_curve((q, y))
