"""Subdivided lattice polygons: validation, interior vertices, edges, the slopes and kinks of nu.

The input datum is a convex lattice polygon P together with a triangulation
into elementary triangles and an integral strictly convex function nu on the
lattice points.  All derived combinatorics (edge labels, affine parts, kinks)
are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .lattice import (
    LatticeError,
    QVec,
    Vec,
    as_int,
    as_ints,
    det2,
    lex_positive,
    primitive,
    record,
    vsub,
)

EdgeKey = tuple[Vec, Vec]  # endpoints sorted lexicographically


class Subdivision:
    __slots__ = ("points", "triangles", "nu", "_hash")
    points: tuple[Vec, ...]
    triangles: tuple[tuple[int, int, int], ...]
    nu: tuple[Fraction | int, ...]

    def __init__(self, points, triangles, nu) -> None:
        # the validate cache is keyed on the subdivision, and tuples do not
        # cache their hash: hash the fields once, not at every lookup
        for name, value in zip(self.__slots__, (points, triangles, nu, hash((points, triangles, nu)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        fields = (self.points, self.triangles, self.nu)
        return type(other) is Subdivision and fields == (other.points, other.triangles, other.nu)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subdivision(points={self.points!r}, triangles={self.triangles!r}, nu={self.nu!r})"


def subdivision(points: Iterable, triangles: Iterable, nu: Iterable) -> Subdivision:
    """A subdivision of integer points and indices and int or Fraction nu; nothing is rounded."""
    pts = tuple(as_ints(p, f"point {i} coordinate") for i, p in enumerate(points))
    tris = tuple(as_ints(t, f"triangle {i} vertex") for i, t in enumerate(triangles))
    if any(len(p) != 2 for p in pts):
        raise LatticeError("points must have two coordinates")
    if any(len(t) != 3 for t in tris):
        raise LatticeError("triangles must have three vertices")
    # integral values become ints, so slopes and kinks stay in integers; a
    # non-integral Fraction is kept for validate to report as nu-not-integral
    nu = tuple(nu)
    kept = {j: v for j, v in enumerate(nu) if isinstance(v, Fraction) and v.denominator != 1}
    vals = as_ints((0 if j in kept else v for j, v in enumerate(nu)), "nu")
    return Subdivision(pts, tris, tuple(kept.get(j, v) for j, v in enumerate(vals)))


@record
class ValidationIssue(NamedTuple):
    code: str
    message: str


@record
class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...]
    index: CheckedSubdivision | None = None  # compared and hashed by its issues alone

    def __eq__(self, other) -> bool:
        return type(other) is ValidationReport and self.issues == other.issues

    def __hash__(self) -> int:
        return hash(self.issues)

    @property
    def ok(self) -> bool:
        return not self.issues


@record
class SubdivisionEdge(NamedTuple):
    a: Vec
    b: Vec
    is_boundary: bool
    plus_triangle: int | None
    minus_triangle: int | None
    normal: Vec  # the primitive normal pointing into the plus triangle

    @property
    def key(self) -> EdgeKey:
        return (self.a, self.b)


@record
class CheckedSubdivision(NamedTuple):
    """A valid subdivision and its incidence data, built by ``validate`` in one pass."""

    sub: Subdivision
    edges: tuple[SubdivisionEdge, ...]  # in key order
    # each point p to its link: each triangle pab at p as a -> b, det(a - p, b - p) > 0; one
    # counterclockwise cycle at an interior vertex, since no two triangles at p overlap
    links: Mapping[Vec, Mapping[Vec, Vec]]
    # each interior vertex, lexicographically sorted, to its position: the
    # position of its bounded region too
    interior_vertices: Mapping[Vec, int]
    slopes: tuple[Vec, ...]  # of nu, one per triangle
    boundary_edges: frozenset[EdgeKey]  # the keys of the edges in one triangle

    def link(self, p: Vec) -> Mapping[Vec, Vec]:
        """The link of p (see ``links``): a lookup, filed by validate's pass over the triangles."""
        return self.links[p]


def convex_hull(points: Sequence[Vec]) -> list[Vec]:
    """Counterclockwise hull (monotone chain), collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def _line(a: Vec, b: Vec) -> tuple[Vec, int]:
    """The line through a != b: its lex-positive primitive direction u and offset det2(u, a)."""
    u = lex_positive(primitive(vsub(b, a)))
    return u, det2(u, a)


@lru_cache(maxsize=1)
def validate(sub: Subdivision) -> ValidationReport:
    """Check every structural invariant; failures are reported, not raised.

    The report of a valid subdivision carries its index (``checked``), built
    in the same pass. This is the one cache keyed on a subdivision, so a
    document checked by io.parse_input is not checked again when its curve is
    built.  Every pipeline works on one subdivision at a time, so only the
    last one is kept and a process that checks many holds one index.
    """
    issues: list[ValidationIssue] = []

    def bad(code: str, message: str, into: list[ValidationIssue] = issues) -> None:
        into.append(ValidationIssue(code, message))

    n = len(sub.points)
    seen: dict[Vec, int] = {}
    for i, p in enumerate(sub.points):
        if p in seen:
            bad("duplicate-point", f"point {p} listed at indices {seen[p]} and {i}")
        seen[p] = i
    if len(sub.nu) != n:
        bad("nu-length", f"{len(sub.nu)} nu values for {n} points")
    for t, tri in enumerate(sub.triangles):
        if len(set(tri)) != 3 or min(tri) < 0 or max(tri) >= n:
            bad("bad-triangle", f"triangle {t} has invalid vertex indices {tri}")
    if issues:
        return ValidationReport(tuple(issues))

    # the one loop over the triangles: areas, sides, links and slopes of nu. An edge is keyed
    # by the ranks of its ends in lexicographic order, so the keys sort as the point pairs do
    pts, nu = sub.points, sub.nu
    order = sorted(range(n), key=pts.__getitem__)
    rank = sorted(range(n), key=order.__getitem__)  # the inverse of order
    sides: dict[int, list[tuple[int, bool]]] = {}
    link: list[dict[Vec, Vec]] = [{} for _ in pts]
    slope_of_nu = []
    total = 0
    for t, (i0, i1, i2) in enumerate(sub.triangles):
        v0, v1, v2 = pts[i0], pts[i1], pts[i2]
        d = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (v2[0] - v0[0])
        total += abs(d)
        if d == 1 or d == -1:
            slope_of_nu.append(_slope(v0, v1, v2, nu[i0], nu[i1], nu[i2]))
        elif d == 0:
            bad("collinear-triangle", f"triangle {t} with vertices {v0}, {v1}, {v2} is collinear")
        else:
            bad("not-elementary", f"triangle {t} with vertices {v0}, {v1}, {v2} has normalized area {abs(d)}")
        # the plus side of an edge is left of its key; the triangle lies left of a -> b when d > 0
        left = d > 0
        r0, r1, r2 = rank[i0], rank[i1], rank[i2]
        for ra, rb in ((r0, r1), (r1, r2), (r2, r0)):
            q = ra * n + rb if ra < rb else rb * n + ra
            sides.setdefault(q, []).append((t, (ra < rb) == left))
        # each corner's step runs counterclockwise round it: v1 -> v2 at v0 when d > 0
        if left:
            link[i0][v1], link[i1][v2], link[i2][v0] = v2, v0, v1
        else:
            link[i0][v2], link[i1][v0], link[i2][v1] = v1, v2, v0
    if any(issue.code == "collinear-triangle" for issue in issues):
        return ValidationReport(tuple(issues))

    hull = convex_hull(sub.points)
    if len(hull) < 3:
        bad("degenerate-polytope", "points do not span a two-dimensional polygon")
        return ValidationReport(tuple(issues))
    area2 = sum(det2(vsub(b, hull[0]), vsub(c, hull[0])) for b, c in zip(hull[1:], hull[2:]))
    if total != area2:
        bad("tiling", f"triangles cover normalized area {total}, polygon has {area2}")

    for p, steps in zip(pts, link):
        if not steps:
            bad("unused-point", f"lattice point {p} is not a vertex of any triangle")

    # Edges are primitive. If each lies in two triangles on opposite sides, or in one and on a side
    # of P, the triangles cover P off the edges equally often, and once by the area check: they
    # tile P, and every lattice point of P is a vertex. README states the argument in full.
    # The one loop over the edges checks, labels and, while no issue is found, bends each.
    hull_lines = {_line(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    labelled, concave = [], []
    on_boundary = [False] * n
    for q, ts in sorted(sides.items()):
        ra, rb = divmod(q, n)
        a, b = key = pts[order[ra]], pts[order[rb]]
        if len(ts) > 2:
            bad("nonmanifold-edge", f"edge {key} lies in {len(ts)} triangles")
            continue
        # rot90(b - a): primitive, since every triangle is elementary
        nx, ny = a[1] - b[1], b[0] - a[0]
        if len(ts) == 1:
            t, plus = ts[0]
            if _line(a, b) not in hull_lines:
                bad("dangling-edge", f"edge {key} lies in one triangle but is not on the boundary")
            on_boundary[ra] = on_boundary[rb] = True
            labelled.append(SubdivisionEdge(a, b, True, t, None, (nx, ny) if plus else (-nx, -ny)))
            continue
        (s, s_plus), (t, t_plus) = ts
        if s_plus == t_plus:
            bad("overlapping-triangles", f"triangles {s} and {t} lie on one side of edge {key}")
            continue
        if t_plus:
            s, t = t, s
        labelled.append(SubdivisionEdge(a, b, False, s, t, (nx, ny)))
        if not issues:  # every triangle has its slope
            # the slope jump from the minus to the plus triangle is the kink times the normal;
            # it is positive exactly where nu is locally convex, whichever side is plus
            (mx, my), (wx, wy) = slope_of_nu[s], slope_of_nu[t]
            k = ((mx - wx) * nx + (my - wy) * ny) // (nx * nx + ny * ny)
            if k <= 0:
                bad("not-strictly-convex", f"nu has kink {k} across interior edge ({a}, {b})", concave)

    for i, v in enumerate(nu):
        if type(v) is not int and Fraction(v).denominator != 1:
            bad("nu-not-integral", f"nu({pts[i]}) = {v} is not an integer")
    if issues or concave:
        return ValidationReport(tuple(issues or concave))
    # the boundary edges of a tiling cover the sides of P, so its ends are the boundary points
    inner = [pts[i] for r, i in enumerate(order) if not on_boundary[r]]
    index = CheckedSubdivision(
        sub,
        tuple(labelled),
        MappingProxyType({p: MappingProxyType(steps) for p, steps in zip(pts, link)}),
        MappingProxyType({v: i for i, v in enumerate(inner)}),
        tuple(slope_of_nu),
        frozenset(e.key for e in labelled if e.is_boundary),
    )
    return ValidationReport((), index)


def checked(sub: Subdivision) -> CheckedSubdivision:
    """The index of a valid subdivision; LatticeError names the first issue otherwise."""
    report = validate(sub)
    if not report.ok:
        first = report.issues[0]
        raise LatticeError(f"invalid subdivision: {first.code}: {first.message}")
    return report.index


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


def check_cocycle(sub: Subdivision, K: KinkVector) -> None:
    """Raise unless K(vw) rot90(w - v) sums to zero over the edges vw at each interior vertex v,
    naming the first v where it does not. Each edge ab is read once, its normal rot90(b - a)."""
    index = checked(sub)
    sums = dict.fromkeys(index.interior_vertices, (0, 0))
    for e in index.edges:
        if e.a in sums or e.b in sums:  # an interior edge, since a boundary edge has boundary ends
            k, (x, y) = kink_entry(K, (e.a, e.b)), e.normal
            for p, c in ((e.a, k), (e.b, -k)):
                if p in sums:
                    sums[p] = (sums[p][0] + c * x, sums[p][1] + c * y)
    for v, s in sums.items():
        if s != (0, 0):
            raise LatticeError(f"not a cocycle: inconsistent around region {v}")


def interior_vertices(sub: Subdivision) -> tuple[Vec, ...]:
    """Lattice points of P not on its boundary, lexicographically sorted."""
    return tuple(checked(sub).interior_vertices)


def edges(sub: Subdivision) -> tuple[SubdivisionEdge, ...]:
    """Every triangle edge once, in key order, with its normal and side labels.

    For an interior edge ab, a < b, the normal is rot90 of the primitive
    direction of b - a, and the plus triangle is the one on its side; the
    dual tropical edge then runs from the plus vertex to the minus vertex
    along it.  A boundary edge's one triangle is its plus triangle, and its
    normal points into that triangle.
    """
    return checked(sub).edges


def interior_edge_keys(sub: Subdivision) -> tuple[EdgeKey, ...]:
    """Canonical (sorted) order of the bounded dual edges."""
    return tuple(e.key for e in edges(sub) if not e.is_boundary)


def _slope(p0: Vec, p1: Vec, p2: Vec, f0, f1, f2) -> QVec:
    """The m with <m, p1 - p0> = f1 - f0 and <m, p2 - p0> = f2 - f0, for det = +-1.

    On an elementary triangle dividing by the determinant d is multiplying by
    it, so integer values give an integer slope and no Fraction is built;
    Fraction values pass through the same formula exactly.
    """
    ux, uy = p1[0] - p0[0], p1[1] - p0[1]
    vx, vy = p2[0] - p0[0], p2[1] - p0[1]
    d = ux * vy - uy * vx
    if d * d != 1:
        raise LatticeError(f"triangle {p0}, {p1}, {p2} is not elementary")
    a, b = f1 - f0, f2 - f0
    return ((a * vy - b * uy) * d, (b * ux - a * vx) * d)
