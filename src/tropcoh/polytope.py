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
    as_ints,
    det2,
    dot,
    lex_positive,
    primitive,
    record,
    rot90,
    vneg,
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

    def triangle_points(self, t: int) -> tuple[Vec, Vec, Vec]:
        i, j, k = self.triangles[t]
        return (self.points[i], self.points[j], self.points[k])


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
    stars: Mapping[Vec, tuple[int, ...]]  # triangles at each lattice point
    # each interior vertex, lexicographically sorted, to its position: the
    # position of its bounded region too
    interior_vertices: Mapping[Vec, int]
    slopes: tuple[Vec, ...]  # of nu, one per triangle
    boundary_edges: frozenset[EdgeKey]  # the keys of the edges in one triangle


def convex_hull(points: Sequence[Vec]) -> list[Vec]:
    """Counterclockwise hull (monotone chain), collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2 and det2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0:
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


@lru_cache(maxsize=None)
def validate(sub: Subdivision) -> ValidationReport:
    """Check every structural invariant; failures are reported, not raised.

    The report of a valid subdivision carries its index (``checked``), built
    in the same pass. This is the one cache keyed on a subdivision, so a
    document checked by io.parse_input is not checked again when its curve is
    built.
    """
    issues: list[ValidationIssue] = []

    def bad(code: str, message: str) -> None:
        issues.append(ValidationIssue(code, message))

    seen: dict[Vec, int] = {}
    for i, p in enumerate(sub.points):
        if p in seen:
            bad("duplicate-point", f"point {p} listed at indices {seen[p]} and {i}")
        seen[p] = i
    if len(sub.nu) != len(sub.points):
        bad("nu-length", f"{len(sub.nu)} nu values for {len(sub.points)} points")
    for t, tri in enumerate(sub.triangles):
        if len(set(tri)) != 3 or any(i < 0 or i >= len(sub.points) for i in tri):
            bad("bad-triangle", f"triangle {t} has invalid vertex indices {tri}")
    if issues:
        return ValidationReport(tuple(issues))

    # the one loop over the triangles: areas, sides, stars and slopes of nu
    pts, nu = sub.points, sub.nu
    sides: dict[EdgeKey, list[tuple[int, bool]]] = {}
    star: dict[Vec, list[int]] = {p: [] for p in pts}
    slope_of_nu = []
    total = 0
    degenerate = False
    for t, (i0, i1, i2) in enumerate(sub.triangles):
        v0, v1, v2 = pts[i0], pts[i1], pts[i2]
        d = det2(vsub(v1, v0), vsub(v2, v0))
        total += abs(d)
        if d == 0:
            bad("collinear-triangle", f"triangle {t} with vertices {v0}, {v1}, {v2} is collinear")
            degenerate = True
        elif abs(d) != 1:
            bad(
                "not-elementary",
                f"triangle {t} with vertices {v0}, {v1}, {v2} has normalized area {abs(d)}",
            )
        else:
            slope_of_nu.append(_slope(v0, v1, v2, nu[i0], nu[i1], nu[i2]))
        # the plus side of an edge is left of its sorted key; the triangle lies
        # left of a -> b when d > 0, so on the plus side when (a < b) == (d > 0)
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            sides.setdefault((a, b) if a < b else (b, a), []).append((t, (a < b) == (d > 0)))
        for v in (v0, v1, v2):
            star[v].append(t)
    if degenerate:
        return ValidationReport(tuple(issues))

    hull = convex_hull(sub.points)
    if len(hull) < 3:
        bad("degenerate-polytope", "points do not span a two-dimensional polygon")
        return ValidationReport(tuple(issues))
    area2 = sum(
        det2(vsub(hull[i], hull[0]), vsub(hull[i + 1], hull[0])) for i in range(1, len(hull) - 1)
    )
    if total != area2:
        bad("tiling", f"triangles cover normalized area {total}, polygon has {area2}")

    for p in sub.points:
        if not star[p]:
            bad("unused-point", f"lattice point {p} is not a vertex of any triangle")

    # Edges are primitive. If each lies in two triangles on opposite sides, or in one and on a side
    # of P, the triangles cover P off the edges equally often, and once by the area check: they
    # tile P, and every lattice point of P is a vertex. README states the argument in full.
    hull_lines = {_line(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    ordered = sorted(sides.items())
    for key, ts in ordered:
        if len(ts) > 2:
            bad("nonmanifold-edge", f"edge {key} lies in {len(ts)} triangles")
        elif len(ts) == 2 and ts[0][1] == ts[1][1]:
            bad("overlapping-triangles", f"triangles {ts[0][0]} and {ts[1][0]} lie on one side of edge {key}")
        elif len(ts) == 1:
            if _line(*key) not in hull_lines:
                bad("dangling-edge", f"edge {key} lies in one triangle but is not on the boundary")

    for i, v in enumerate(sub.nu):
        if type(v) is not int and Fraction(v).denominator != 1:
            bad("nu-not-integral", f"nu({sub.points[i]}) = {v} is not an integer")
    if issues:
        return ValidationReport(tuple(issues))

    labelled = tuple(_edge(key, ts) for key, ts in ordered)
    for (a, b), k in _kinks(labelled, slope_of_nu).items():
        if k <= 0:
            bad("not-strictly-convex", f"nu has kink {k} across interior edge ({a}, {b})")
    if issues:
        return ValidationReport(tuple(issues))
    # the boundary edges of a tiling cover the sides of P, so its ends are the boundary points
    boundary = frozenset(e.key for e in labelled if e.is_boundary)
    on_boundary = {p for key in boundary for p in key}
    inner = sorted(p for p in sub.points if p not in on_boundary)
    index = CheckedSubdivision(
        sub,
        labelled,
        MappingProxyType({p: tuple(ts) for p, ts in star.items()}),
        MappingProxyType({v: i for i, v in enumerate(inner)}),
        tuple(slope_of_nu),
        boundary,
    )
    return ValidationReport((), index)


def checked(sub: Subdivision) -> CheckedSubdivision:
    """The index of a valid subdivision; LatticeError names the first issue otherwise."""
    report = validate(sub)
    if not report.ok:
        first = report.issues[0]
        raise LatticeError(f"invalid subdivision: {first.code}: {first.message}")
    return report.index


def _edge(key: EdgeKey, sides: list[tuple[int, bool]]) -> SubdivisionEdge:
    """The edge with the given key, labelled from its (triangle, on the plus side) pairs."""
    a, b = key
    normal = rot90(vsub(b, a))  # primitive, since every triangle is elementary
    if len(sides) == 1:
        t, plus = sides[0]
        return SubdivisionEdge(a, b, True, t, None, normal if plus else vneg(normal))
    (s, s_plus), (t, _) = sides
    plus, minus = (s, t) if s_plus else (t, s)
    return SubdivisionEdge(a, b, False, plus, minus, normal)


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


def _kinks(es: Sequence[SubdivisionEdge], m: Sequence[Vec]) -> dict[EdgeKey, int]:
    """Signed bend across each interior edge, in edge order, from the integer slopes m.

    The slope jump from the minus to the plus triangle is the kink times the
    normal; it is positive exactly where the function is locally convex, and
    does not depend on which side was labelled plus.  Integer values give
    integer slopes, whose jump is an integer multiple of the primitive normal.
    """
    out = {}
    for e in es:
        if not e.is_boundary:
            normal = e.normal
            jump = dot(vsub(m[e.plus_triangle], m[e.minus_triangle]), normal)
            out[e.key] = jump // dot(normal, normal)
    return out
