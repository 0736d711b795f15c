"""Subdivision validation, edge combinatorics, and exact kinks."""

import ast
import importlib
import inspect
import pkgutil
import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tropcoh
from conftest import hex_grid
from oracles import (
    affine_part,
    euler_characteristic,
    fraction_kinks,
    fraction_slope,
    is_tiling,
    normalized_area,
    one_triangle_edge_keys,
    opposite_vertex_sides,
    star_walk_link,
    stars,
    triangle_points,
)
from tropcoh import polytope
from tropcoh.bundles import canonical_KC, phi_map
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.fan import fan_at_vertex
from tropcoh.lattice import LatticeError, det2, dot, primitive, rot90, vsub
from tropcoh.polytope import (
    ValidationIssue,
    _slope,
    checked,
    convex_hull,
    edges,
    interior_edge_keys,
    interior_vertices,
    subdivision,
    validate,
)
from tropcoh.tropical import bounded_regions, tropical_curve


def codes(sub):
    return {i.code for i in validate(sub).issues}


P2_POINTS = [(0, 0), (1, 0), (0, 1), (-1, -1)]
P2_TRIS = [(0, 1, 2), (0, 2, 3), (0, 3, 1)]
P2_NU = [0, 1, 1, 1]


class TestValidationCodes:
    def test_clean_input_has_no_issues(self):
        # the example builders do not validate what they return
        for sub in (local_p2(), blowup_p2(), *(a2d_subdivision(d) for d in range(1, 9))):
            assert validate(sub).ok, sub

    def test_duplicate_point(self):
        sub = subdivision(P2_POINTS + [(1, 0)], P2_TRIS, P2_NU + [1])
        assert "duplicate-point" in codes(sub)

    def test_nu_length(self):
        sub = subdivision(P2_POINTS, P2_TRIS, [0, 1, 1])
        assert "nu-length" in codes(sub)

    def test_bad_triangle_index(self):
        sub = subdivision(P2_POINTS, [(0, 1, 7)], P2_NU)
        assert "bad-triangle" in codes(sub)

    def test_repeated_vertex_in_triangle(self):
        sub = subdivision(P2_POINTS, [(0, 1, 1)], P2_NU)
        assert "bad-triangle" in codes(sub)

    def test_collinear_triangle(self):
        sub = subdivision(
            [(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 1, 2)], [0, 0, 0, 0]
        )
        assert "collinear-triangle" in codes(sub)

    def test_not_elementary(self):
        sub = subdivision(
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [(0, 1, 3), (0, 3, 2)],
            [0, 1, 1, 0],
        )
        assert validate(sub).ok
        big = subdivision([(0, 0), (2, 0), (0, 1)], [(0, 1, 2)], [0, 0, 0])
        assert "not-elementary" in codes(big)

    def test_degenerate_polytope(self):
        sub = subdivision([(0, 0), (1, 0)], [], [0, 0])
        assert "degenerate-polytope" in codes(sub)

    def test_missing_lattice_point(self):
        # (1, 1) sits in conv{(0,0), (2,0), (0,2)} but is not listed, so the
        # triangle at (1, 0), (0, 1), (0, 2) has a side inside P
        sub = subdivision(
            [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)],
            [(0, 1, 3), (3, 1, 4)],
            [0, 0, 0, 0, 0],
        )
        assert not validate(sub).ok
        assert ValidationIssue(
            "dangling-edge", "edge ((0, 2), (1, 0)) lies in one triangle but is not on the boundary"
        ) in validate(sub).issues

    def test_chord_in_one_triangle_is_dangling(self):
        # every edge here ends on the boundary of the 2 x 1 rectangle, but three
        # cross it in one triangle; the triangles overlap yet add up to its area
        sub = subdivision(
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
            [(1, 3, 4), (0, 1, 2), (1, 2, 4), (2, 3, 5)],
            [0, 0, 0, 2, 1, 0],
        )
        assert validate(sub).issues == tuple(
            ValidationIssue("dangling-edge", f"edge {key} lies in one triangle but is not on the boundary")
            for key in (((1, 0), (1, 1)), ((1, 0), (2, 1)), ((1, 1), (2, 0)))
        )

    def test_tiling_mismatch(self):
        sub = subdivision(
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 2, 3), (0, 2, 3)],
            [0, 0, 0, 0],
        )
        assert "tiling" in codes(sub)

    def test_unused_point(self):
        sub = subdivision(
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2)], [0, 0, 0, 0]
        )
        assert "tiling" in codes(sub)
        assert "unused-point" in codes(sub)

    def test_overlapping_triangles(self):
        # both triangles lie above (0, 0)-(1, 0), yet their areas tile the square
        sub = subdivision(
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (0, 1, 3)], [0, 0, 0, 0]
        )
        assert validate(sub).issues == (
            ValidationIssue(
                "overlapping-triangles",
                "triangles 0 and 1 lie on one side of edge ((0, 0), (1, 0))",
            ),
            ValidationIssue(
                "dangling-edge",
                "edge ((0, 0), (1, 1)) lies in one triangle but is not on the boundary",
            ),
            ValidationIssue(
                "dangling-edge",
                "edge ((0, 1), (1, 0)) lies in one triangle but is not on the boundary",
            ),
        )
        with pytest.raises(LatticeError, match="invalid subdivision: overlapping-triangles"):
            checked(sub)

    def test_several_faults_are_reported_at_once_and_in_order(self):
        """Triangles in order, then area, unused points, edges in key order, and nu last."""
        triangles = subdivision(
            [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1), (1, 2)],
            [(0, 2, 4), (1, 3, 6), (3, 7, 6)],
            [0] * 9,
        )
        area, dangling = "has normalized area 2", "lies in one triangle but is not on the boundary"
        assert validate(triangles).issues == (
            ValidationIssue("not-elementary", "triangle 0 with vertices (0, 0), (2, 0), (0, 1) " + area),
            ValidationIssue("not-elementary", "triangle 1 with vertices (1, 0), (3, 0), (2, 1) " + area),
            ValidationIssue("tiling", "triangles cover normalized area 5, polygon has 9"),
            ValidationIssue("unused-point", "lattice point (1, 1) is not a vertex of any triangle"),
            ValidationIssue("unused-point", "lattice point (1, 2) is not a vertex of any triangle"),
            ValidationIssue("dangling-edge", f"edge ((0, 1), (2, 0)) {dangling}"),
            ValidationIssue("dangling-edge", f"edge ((1, 0), (2, 1)) {dangling}"),
            ValidationIssue("dangling-edge", f"edge ((2, 1), (3, 1)) {dangling}"),
        )
        edges_and_nu = subdivision(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, -1), (1, -1)],
            [(0, 1, 3), (0, 1, 4), (0, 6, 1), (1, 2, 4), (1, 5, 4), (6, 7, 1), (2, 5, 4)],
            [0, 1, Fraction(1, 2), 1, 0, 2, Fraction(-3, 2), 1],
        )
        assert validate(edges_and_nu).issues == (
            ValidationIssue("nonmanifold-edge", "edge ((0, 0), (1, 0)) lies in 3 triangles"),
            ValidationIssue("dangling-edge", f"edge ((0, 0), (1, 1)) {dangling}"),
            ValidationIssue("dangling-edge", f"edge ((0, 1), (1, 0)) {dangling}"),
            ValidationIssue("dangling-edge", f"edge ((1, -1), (1, 0)) {dangling}"),
            ValidationIssue("nonmanifold-edge", "edge ((1, 0), (1, 1)) lies in 3 triangles"),
            ValidationIssue("dangling-edge", f"edge ((1, 0), (2, 0)) {dangling}"),
            ValidationIssue("dangling-edge", f"edge ((1, 0), (2, 1)) {dangling}"),
            ValidationIssue(
                "overlapping-triangles", "triangles 4 and 6 lie on one side of edge ((1, 1), (2, 1))"
            ),
            ValidationIssue("nu-not-integral", "nu((2, 0)) = 1/2 is not an integer"),
            ValidationIssue("nu-not-integral", "nu((0, -1)) = -3/2 is not an integer"),
        )

    def test_nu_not_integral(self):
        sub = subdivision(P2_POINTS, P2_TRIS, [0, 1, 1, Fraction(1, 2)])
        assert "nu-not-integral" in codes(sub)

    def test_not_strictly_convex(self):
        sub = subdivision(P2_POINTS, P2_TRIS, [0, 0, 0, 0])
        assert codes(sub) == {"not-strictly-convex"}

    def test_checked_raises_with_first_code(self):
        sub = subdivision(P2_POINTS, P2_TRIS, [0, 0, 0, 0])
        assert validate(sub).index is None
        for build in (checked, tropical_curve):
            with pytest.raises(LatticeError, match="invalid subdivision: not-strictly-convex"):
                build(sub)


def test_boundary_edges_are_the_edges_in_one_triangle(oracle_subdivisions):
    for sub in (*oracle_subdivisions, hex_grid(8), a2d_subdivision(40)):
        index = checked(sub)
        assert index.boundary_edges == one_triangle_edge_keys(sub)
        assert index.boundary_edges == {e.key for e in index.edges if e.is_boundary}


def test_edge_classification_on_p2(p2_sub, oracle_subdivisions):
    es = edges(p2_sub)
    assert len(es) == 6
    assert sum(e.is_boundary for e in es) == 3
    # oracle: the old rule, which finds the vertex off the edge in each triangle
    for sub in _both_orientations(oracle_subdivisions):
        index = checked(sub)
        curve = tropical_curve(sub)
        rays = iter(curve.rays)
        bounded = iter(curve.bounded)
        star = stars(sub)
        for e in index.edges:
            tris = tuple(t for t in star[e.a] if t in star[e.b])
            plus, minus, normal = opposite_vertex_sides(sub, e.key, tris)
            assert (e.plus_triangle, e.minus_triangle, e.normal) == (plus, minus, normal)
            if e.is_boundary:
                ray = next(rays)
                origin = curve.vertices[ray.plus_triangle]
                assert (ray.key, origin, ray.normal) == (e.key, curve.vertices[plus], normal)
            else:
                assert normal == rot90(primitive(vsub(e.b, e.a)))
                edge = next(bounded)
                want = (e.key, curve.vertices[plus], curve.vertices[minus], normal)
                ends = curve.vertices[edge.plus_triangle], curve.vertices[edge.minus_triangle]
                assert (edge.key, *ends, edge.normal) == want
        assert next(rays, None) is None and next(bounded, None) is None


def test_incidence_indexes_match_a_full_scan(p2_sub, blowup_sub, a2d3_sub):
    for sub in (p2_sub, blowup_sub, a2d3_sub, a2d_subdivision(6), hex_grid(4)):
        index = checked(sub)
        tris = [triangle_points(sub, t) for t in range(len(sub.triangles))]
        star = {p: tuple(t for t, pts in enumerate(tris) if p in pts) for p in sub.points}
        assert stars(sub) == star
        sides = {}
        for t, (a, b, c) in enumerate(tris):
            for side in ((a, b), (b, c), (c, a)):
                sides.setdefault(tuple(sorted(side)), []).append(t)
        assert [e.key for e in index.edges] == sorted(sides)
        on_edge = {e.key: {e.plus_triangle, e.minus_triangle} - {None} for e in index.edges}
        assert on_edge == {key: set(ts) for key, ts in sides.items()}
        # an interior point has as many edges as triangles, a boundary point one more
        inner = sorted(p for p in sub.points if sum(p in key for key in sides) == len(star[p]))
        assert dict(index.interior_vertices) == {v: i for i, v in enumerate(inner)}
        assert index.slopes == tuple(fraction_slope(sub, sub.nu, t) for t in range(len(tris)))


def test_links_are_the_star_walk(oracle_subdivisions):
    """validate files each triangle into its corners' links; the oracle walks each point's star.

    Every point is compared, boundary points too, and with every triangle reversed as well.
    """
    for sub in _both_orientations((*oracle_subdivisions, *(hex_grid(n) for n in (4, 8)), a2d_subdivision(40))):
        index = checked(sub)
        assert index.links == {p: star_walk_link(sub, p) for p in sub.points}
        assert all(index.link(p) is index.links[p] for p in sub.points)


def test_interior_edge_keys_are_sorted(blowup_sub):
    keys = interior_edge_keys(blowup_sub)
    assert len(keys) == 4
    assert list(keys) == sorted(keys)
    for a, b in keys:
        assert a < b


def test_affine_part_interpolates(p2_sub):
    for t in range(len(p2_sub.triangles)):
        m, c = affine_part(p2_sub, P2_NU, t)
        for i in p2_sub.triangles[t]:
            p = p2_sub.points[i]
            assert m[0] * p[0] + m[1] * p[1] + c == P2_NU[i]


def _slopes(sub, values):
    """The slope of the interpolant on each triangle, by validate's one solve each."""
    return [_slope(*triangle_points(sub, t), *(values[i] for i in tri)) for t, tri in enumerate(sub.triangles)]


def _reported_kinks(sub, values):
    """The kinks validate reports as not strictly convex, by edge key, in the order reported."""
    issues = validate(subdivision(sub.points, sub.triangles, values)).issues
    assert {i.code for i in issues} <= {"not-strictly-convex"}
    found = (re.fullmatch(r"nu has kink (-?\d+) across interior edge (.+)", i.message) for i in issues)
    return {ast.literal_eval(m[2]): int(m[1]) for m in found}


def _edge_kinks(sub, values):
    """The kink across each interior edge, in edge order, as validate computes nu's.

    validate reports only the kinks that are not positive. The valid sub.nu bends up by at least 1
    across every interior edge, so for n large enough values - n nu bends down across them all
    and each is reported; adding back n times the kinks of nu gives those of values.
    """
    nu_kinks = {key: -k for key, k in _reported_kinks(sub, [-v for v in sub.nu]).items()}
    n = 1
    while len(shifted := _reported_kinks(sub, [v - n * w for v, w in zip(values, sub.nu)])) < len(nu_kinks):
        n *= 2
    return {key: k + n * nu_kinks[key] for key, k in shifted.items()}


def test_every_p2_kink_is_three(p2_sub):
    assert set(_edge_kinks(p2_sub, P2_NU).values()) == {3}


def test_edge_kinks_skip_boundary_edges(p2_sub):
    assert tuple(_edge_kinks(p2_sub, P2_NU)) == interior_edge_keys(p2_sub)


def test_edge_kinks_sign_flips_with_concavity(p2_sub):
    neg = [-v for v in P2_NU]
    assert set(_edge_kinks(p2_sub, neg).values()) == {-3}


def _value_sets(sub, rng):
    """nu, -nu, random integers and random non-integral Fractions."""
    return (
        sub.nu,
        [-v for v in sub.nu],
        [rng.randrange(-9, 10) for _ in sub.points],
        [Fraction(rng.randrange(-40, 41), rng.randrange(1, 7)) for _ in sub.points],
    )


def _both_orientations(subs):
    """Each subdivision as given (counterclockwise triangles) and with every triangle reversed."""
    for sub in subs:
        yield sub
        yield subdivision(sub.points, [t[::-1] for t in sub.triangles], sub.nu)


def test_slopes_match_a_fraction_solve_per_triangle(oracle_subdivisions):
    """Oracle: each triangle's 2x2 system solved again over Fractions."""
    rng = random.Random(7)
    for sub in _both_orientations(oracle_subdivisions):
        for values in _value_sets(sub, rng):
            want = [fraction_slope(sub, values, t) for t in range(len(sub.triangles))]
            assert _slopes(sub, values) == want
        # integral values give integral slopes without building a Fraction
        assert all(type(x) is int for m in _slopes(sub, sub.nu) for x in m)


def test_edge_kinks_match_two_solves_per_edge(oracle_subdivisions):
    """Oracle: both triangles of each interior edge solved again over Fractions.

    validate reads kinks of integral nu only, so only integer values are
    compared: the Fraction value set is left out.
    """
    rng = random.Random(11)
    for sub in _both_orientations(oracle_subdivisions):
        for values in _value_sets(sub, rng)[:3]:
            want = fraction_kinks(sub, values)
            got = _edge_kinks(sub, values)
            assert got == want
            assert list(got) == list(want)


def test_slopes_reject_a_triangle_that_is_not_elementary():
    big = subdivision([(0, 0), (2, 0), (0, 1)], [(0, 1, 2)], [0, 0, 0])
    with pytest.raises(LatticeError, match="not elementary"):
        _slopes(big, big.nu)


def test_curve_pipeline_takes_no_fraction_solve(oracle_subdivisions):
    """Validation, the curve and Phi build, and no module they load has the Fraction solve."""
    for sub in oracle_subdivisions:
        # a constant shift keeps every kink, and misses the validate cache
        fresh = subdivision(sub.points, sub.triangles, [v + 1 for v in sub.nu])
        assert validate(fresh).ok
        curve = tropical_curve(fresh)
        phi = phi_map(curve)
        assert len(phi.matrix) == 2 * len(bounded_regions(curve))
    loaded = {name: module for name, module in sys.modules.items() if name.startswith("tropcoh")}
    assert {"tropcoh.lattice", "tropcoh.polytope", "tropcoh.tropical", "tropcoh.bundles"} <= set(loaded)
    assert [name for name, module in loaded.items() if hasattr(module, "solve_dual")] == []


def test_interior_vertices(p2_sub, blowup_sub, a2d3_sub):
    assert interior_vertices(p2_sub) == ((0, 0),)
    assert interior_vertices(blowup_sub) == ((1, 1),)
    assert interior_vertices(a2d3_sub) == ((1, 1), (2, 1))


def test_interior_vertices_and_fans_check_the_subdivision():
    flat = subdivision(P2_POINTS, P2_TRIS, [0, 0, 0, 0])
    with pytest.raises(LatticeError, match="invalid subdivision: not-strictly-convex"):
        interior_vertices(flat)
    with pytest.raises(LatticeError, match="invalid subdivision: not-strictly-convex"):
        fan_at_vertex(flat, (0, 0))


def test_curve_pipeline_solves_each_triangle_once(monkeypatch):
    """validate, the curve, its regions, Phi and every canonical class: one slope solve each.

    A repeated build after clearing the validate cache does the same work again.
    """
    calls = []
    real = polytope._slope

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "_slope", counted)
    for sub in (a2d_subdivision(20), hex_grid(6)):
        for _ in range(2):
            validate.cache_clear()
            calls.clear()
            assert validate(sub).ok
            curve = tropical_curve(sub)
            phi_map(curve)
            for region in bounded_regions(curve):
                canonical_KC(region)
            assert len(calls) == len(sub.triangles)


def test_validate_is_the_only_cache_keyed_on_a_subdivision_or_curve():
    caches = {}
    for info in pkgutil.iter_modules(tropcoh.__path__):
        module = importlib.import_module(f"tropcoh.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = inspect.signature(obj.__wrapped__)
    assert caches
    keyed = set()
    for name, sig in caches.items():
        for param in sig.parameters.values():
            # every cached function says what it takes
            assert param.annotation is not inspect.Parameter.empty, (name, param)
            if any(t in str(param.annotation) for t in ("Subdivision", "TropicalCurve")):
                keyed.add(name)
    assert keyed == {"tropcoh.polytope.validate"}


def test_validate_keeps_a_bounded_number_of_subdivisions():
    size = validate.cache_info().maxsize
    assert size is not None
    validate.cache_clear()
    for d in range(1, size + 2):
        assert validate(a2d_subdivision(d)).ok
    assert validate.cache_info().currsize <= size


def test_euler_characteristic_is_one(p2_sub, blowup_sub, a2d3_sub):
    for sub in (p2_sub, blowup_sub, a2d3_sub):
        assert euler_characteristic(sub) == 1


def test_a2d3_edge_counts(a2d3_sub):
    assert len(a2d3_sub.points) == 12
    assert len(a2d3_sub.triangles) == 12
    assert len(interior_edge_keys(a2d3_sub)) == 13


points_strategy = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=14
)


@given(points_strategy)
def test_convex_hull_is_convex_and_contains_input(pts):
    hull = convex_hull(pts)
    assert all(p in set(pts) for p in hull)
    n = len(hull)
    if n < 3:
        return
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        # all points weakly left of each directed hull edge, hull ccw
        for p in pts:
            assert det2(vsub(b, a), vsub(p, a)) >= 0


def test_a_thin_triangle_is_counted_not_scanned():
    # one elementary triangle whose bounding box holds about 10**18 points
    n = 10**9
    sub = subdivision([(0, 0), (n, n - 1), (n - 1, n - 2)], [(0, 1, 2)], [0, 0, 0])
    assert validate(sub).ok


RECTANGLE = [(x, y) for x in range(3) for y in range(2)]


def test_validate_accepts_exactly_the_tilings():
    """Every set of 1 to A + 1 elementary triangles on the 2 x 1 rectangle and on its 5-point subsets.

    With nu = 0 a tiling fails strict convexity and nothing else, so validate
    takes the triangles for a tiling when that is its only issue.
    """
    documents, tilings, wrong = 0, 0, []
    for pts in [RECTANGLE, *map(list, combinations(RECTANGLE, 5))]:
        elementary = [
            t for t in combinations(range(len(pts)), 3)
            if abs(det2(vsub(pts[t[1]], pts[t[0]]), vsub(pts[t[2]], pts[t[0]]))) == 1
        ]
        for k in range(1, normalized_area(pts) + 2):
            for tris in combinations(elementary, k):
                issues = validate(subdivision(pts, tris, [0] * len(pts))).issues
                accepted = all(i.code == "not-strictly-convex" for i in issues)
                tiling = is_tiling(pts, tris)
                documents += 1
                tilings += tiling
                if accepted != tiling:
                    wrong.append((pts, tris, [i.code for i in issues]))
    assert documents == 2007 and tilings > 0
    assert not wrong, f"{len(wrong)} disagreements with the tiling oracle, first {wrong[:3]}"


@pytest.mark.parametrize(
    "points, triangles, nu, message",
    [
        ([(0.9, 0), (1, 0), (0, 1), (-1, -1.7)], P2_TRIS, P2_NU, "point 0 coordinate 0 is 0.9, not an integer"),
        ([(0, 0), (1, 0), (0, 1), (-1, -1.7)], P2_TRIS, P2_NU, "point 3 coordinate 1 is -1.7, not an integer"),
        ([(0, 0), (1, 0), (Fraction(1, 2), 1)], [(0, 1, 2)], [0] * 3, "point 2 coordinate 0 is Fraction(1, 2)"),
        (P2_POINTS, [(0, 1, 2), (0, 1.9, 3), (0, 3, 1)], P2_NU, "triangle 1 vertex 1 is 1.9, not an integer"),
        (P2_POINTS, [(0, 1, 2), (0, 2, "3"), (0, 3, 1)], P2_NU, "triangle 1 vertex 2 is '3', not an integer"),
        (P2_POINTS, P2_TRIS, [0, "1", 1, 1], "nu 1 is '1', not an integer"),
        (P2_POINTS, P2_TRIS, [0, 1, 1, 1.0], "nu 3 is 1.0, not an integer"),
        ([(0, 0, 0), (1, 0), (0, 1)], [(0, 1, 2)], [0] * 3, "points must have two coordinates"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], [True, 0, True], "nu 0 is True, not an integer"),
        ([(0, 0), (True, 0), (0, 1)], [(0, 1, 2)], [0] * 3, "point 1 coordinate 0 is True, not an integer"),
    ],
)
def test_subdivision_does_not_round(points, triangles, nu, message):
    with pytest.raises(LatticeError, match=re.escape(message)):
        subdivision(points, triangles, nu)


def test_subdivision_keeps_integral_fractions_as_ints():
    sub = subdivision(
        [(Fraction(0), 0), (1, Fraction(2, 2)), (0, 1), (-1, -1)],
        [(0, 1, 2), (Fraction(0), 2, 3), (0, 3, 1)],
        [Fraction(0), Fraction(2, 2), 1, 1],
    )
    assert sub == subdivision([(0, 0), (1, 1), (0, 1), (-1, -1)], [(0, 1, 2), (0, 2, 3), (0, 3, 1)], [0, 1, 1, 1])
    assert all(type(x) is int for p in sub.points for x in p) and all(type(v) is int for v in sub.nu)
    half = subdivision(P2_POINTS, P2_TRIS, [0, 1, 1, Fraction(1, 2)])
    assert half.nu[3] == Fraction(1, 2)
    assert "nu-not-integral" in codes(half)
