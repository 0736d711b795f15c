"""Subdivision validation, edge combinatorics, and exact kinks."""

import importlib
import inspect
import pkgutil
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tropcoh
from conftest import hex_grid
from oracles import euler_characteristic, fraction_kinks, fraction_slope, opposite_vertex_sides
from tropcoh import lattice, polytope
from tropcoh.bundles import canonical_KC, phi_map
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.fan import fan_at_vertex
from tropcoh.lattice import LatticeError, det2, dot, rot90, vsub
from tropcoh.polytope import (
    ValidationIssue,
    affine_part,
    checked,
    convex_hull,
    edge_kinks,
    edges,
    interior_edge_keys,
    interior_vertices,
    lattice_points_in_hull,
    slopes,
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
        # (1, 1) sits in conv{(0,0), (2,0), (0,2)} but is not listed
        sub = subdivision(
            [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)],
            [(0, 1, 3), (3, 1, 4)],
            [0, 0, 0, 0, 0],
        )
        assert "missing-lattice-point" in codes(sub)

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
        )
        with pytest.raises(LatticeError, match="invalid subdivision: overlapping-triangles"):
            checked(sub)

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
        for e in index.edges:
            plus, minus, normal = opposite_vertex_sides(sub, e.key, index.edge_triangles[e.key])
            assert (e.plus_triangle, e.minus_triangle, e.normal) == (plus, minus, normal)
            if e.is_boundary:
                ray = next(rays)
                assert (ray.key, ray.origin, ray.direction) == (e.key, curve.vertices[plus], normal)
            else:
                assert normal == rot90(e.n_check)
                edge = next(bounded)
                want = (e.key, curve.vertices[plus], curve.vertices[minus], normal)
                assert (edge.key, edge.p_plus, edge.p_minus, edge.n_e) == want
        assert next(rays, None) is None and next(bounded, None) is None


def test_incidence_indexes_match_a_full_scan(p2_sub, blowup_sub, a2d3_sub):
    for sub in (p2_sub, blowup_sub, a2d3_sub):
        index = checked(sub)
        tris = [sub.triangle_points(t) for t in range(len(sub.triangles))]
        star = {p: tuple(t for t, pts in enumerate(tris) if p in pts) for p in sub.points}
        assert index.stars == star
        sides = {}
        for t, (a, b, c) in enumerate(tris):
            for side in ((a, b), (b, c), (c, a)):
                sides.setdefault(tuple(sorted(side)), []).append(t)
        grouped = index.edge_triangles
        assert list(grouped) == sorted(sides)
        assert grouped == {key: tuple(ts) for key, ts in sides.items()}
        assert [e.key for e in index.edges] == sorted(sides)
        # an interior point has as many edges as triangles, a boundary point one more
        inner = sorted(p for p in sub.points if sum(p in key for key in sides) == len(star[p]))
        assert dict(index.interior_vertices) == {v: i for i, v in enumerate(inner)}
        assert index.slopes == tuple(fraction_slope(sub, sub.nu, t) for t in range(len(tris)))


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


def test_every_p2_kink_is_three(p2_sub):
    assert set(edge_kinks(p2_sub, P2_NU).values()) == {3}


def test_edge_kinks_skip_boundary_edges(p2_sub):
    assert tuple(edge_kinks(p2_sub, P2_NU)) == interior_edge_keys(p2_sub)


def test_edge_kinks_sign_flips_with_concavity(p2_sub):
    neg = [-v for v in P2_NU]
    assert set(edge_kinks(p2_sub, neg).values()) == {-3}


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
            want = tuple(fraction_slope(sub, values, t) for t in range(len(sub.triangles)))
            assert slopes(sub, values) == want
        # integral values give integral slopes without building a Fraction
        assert all(type(x) is int for m in slopes(sub, sub.nu) for x in m)


def test_edge_kinks_match_two_solves_per_edge(oracle_subdivisions):
    """Oracle: both triangles of each interior edge solved again over Fractions."""
    rng = random.Random(11)
    for sub in _both_orientations(oracle_subdivisions):
        for values in _value_sets(sub, rng):
            want = fraction_kinks(sub, values)
            got = edge_kinks(sub, values)
            assert got == want
            assert list(got) == list(want)


def test_slopes_reject_a_triangle_that_is_not_elementary():
    big = subdivision([(0, 0), (2, 0), (0, 1)], [(0, 1, 2)], [0, 0, 0])
    with pytest.raises(LatticeError, match="not elementary"):
        slopes(big, big.nu)


def test_curve_pipeline_takes_no_fraction_solve(oracle_subdivisions, monkeypatch):
    """With solve_dual raising everywhere, validation, the curve and Phi still build."""
    real = lattice.solve_dual

    def boom(*args):
        raise RuntimeError("solve_dual called")

    for name, module in list(sys.modules.items()):
        if name.startswith("tropcoh") and getattr(module, "solve_dual", None) is real:
            monkeypatch.setattr(module, "solve_dual", boom)
    for sub in oracle_subdivisions:
        # a constant shift keeps every kink, and misses the validate cache
        fresh = subdivision(sub.points, sub.triangles, [v + 1 for v in sub.nu])
        assert validate(fresh).ok
        curve = tropical_curve(fresh)
        phi = phi_map(curve)
        assert len(phi.matrix) == 2 * len(bounded_regions(curve))


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


@given(points_strategy)
def test_lattice_points_in_hull_matches_brute_force(pts):
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    inside = set(lattice_points_in_hull(hull))
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    brute = set()
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if all(
                det2(vsub(hull[(i + 1) % len(hull)], hull[i]), vsub(p, hull[i])) >= 0
                for i in range(len(hull))
            ):
                brute.add(p)
    assert inside == brute


@given(points_strategy)
def test_missing_lattice_points_match_a_box_scan(pts):
    """validate counts P's lattice points and lists the missing ones in lexicographic order."""
    listed = sorted(set(pts))
    hull = convex_hull(listed)
    if len(hull) < 3:
        return
    missing = [p for p in lattice_points_in_hull(hull) if p not in listed]
    issues = validate(subdivision(listed, [], [0] * len(listed))).issues
    found = [i.message for i in issues if i.code == "missing-lattice-point"]
    assert found == [f"lattice point {p} of P is not listed" for p in missing]


def test_a_thin_triangle_is_counted_not_scanned():
    # one elementary triangle whose bounding box holds about 10**18 points
    n = 10**9
    sub = subdivision([(0, 0), (n, n - 1), (n - 1, n - 2)], [(0, 1, 2)], [0, 0, 0])
    assert validate(sub).ok
