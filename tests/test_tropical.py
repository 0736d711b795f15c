"""Duality between the subdivision and its tropical curve."""

from fractions import Fraction

import pytest

from oracles import legendre, region_cycle, stars
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.lattice import LatticeError, lex_positive, rot90, vneg, vsub
from tropcoh.polytope import checked, edges
from tropcoh.tropical import (
    bounded_regions,
    region_at,
    tropical_curve,
)

P2_VERTICES = {(-1, -1), (2, -1), (-1, 2)}
P2_TANGENTS = {(1, 0), (-1, 1), (0, -1)}


def test_p2_curve_vertices_exact(p2_curve):
    assert set(p2_curve.vertices) == P2_VERTICES


def test_p2_bounded_edge_tangents_up_to_sign(p2_curve):
    got = {lex_positive(e.normal) for e in p2_curve.bounded}
    assert got == {lex_positive(t) for t in P2_TANGENTS}


def test_curve_counts_match_duality(p2_sub, blowup_sub, a2d3_sub):
    for sub in (p2_sub, blowup_sub, a2d3_sub):
        curve = tropical_curve(sub)
        es = edges(sub)
        assert len(curve.vertices) == len(sub.triangles)
        assert len(curve.bounded) == sum(1 for e in es if not e.is_boundary)
        assert len(curve.rays) == sum(1 for e in es if e.is_boundary)


def test_curve_edges_are_the_index_edges(oracle_subdivisions):
    """The bounded edges and rays are the checked index's own edges, split by is_boundary, in key order."""
    for sub in oracle_subdivisions:
        curve = tropical_curve(sub)
        index = checked(sub)
        assert curve.index is index
        for got, boundary in ((curve.bounded, False), (curve.rays, True)):
            want = [e for e in index.edges if e.is_boundary == boundary]
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
            assert [e.key for e in got] == sorted(e.key for e in got)


def test_vertices_realize_the_legendre_minimum():
    """Each vertex attains the minimum over all points, tied by its triangle's terms only.

    tropical_curve does not check this itself: it follows from validity.
    """
    for sub in (local_p2(), blowup_p2(), *(a2d_subdivision(d) for d in range(1, 9))):
        curve = tropical_curve(sub)
        f = legendre(sub)
        for t, m in enumerate(curve.vertices):
            terms = [
                Fraction(p[0]) * m[0] + Fraction(p[1]) * m[1] + c
                for p, c in zip(sub.points, sub.nu)
            ]
            assert f(m) == min(terms)
            tied = {i for i, v in enumerate(terms) if v == f(m)}
            assert tied == set(sub.triangles[t]), (sub.points, t)


def test_balancing_at_every_vertex(p2_sub, blowup_sub, a2d3_sub):
    """Primitive directions of the three edges at a vertex sum to zero."""
    for sub in (p2_sub, blowup_sub, a2d3_sub):
        curve = tropical_curve(sub)
        outgoing = {t: [] for t in range(len(sub.triangles))}
        for e in curve.bounded:
            outgoing[e.plus_triangle].append(e.normal)
            outgoing[e.minus_triangle].append(vneg(e.normal))
        for ray in curve.rays:
            outgoing[ray.plus_triangle].append(ray.normal)
        for t, dirs in outgoing.items():
            assert len(dirs) == 3
            assert sum(d[0] for d in dirs) == 0
            assert sum(d[1] for d in dirs) == 0


def test_bounded_edge_orientation(blowup_curve):
    # stored tangent runs from the plus vertex towards the minus vertex
    pos = blowup_curve.vertices
    for e in blowup_curve.bounded:
        d = vsub(pos[e.minus_triangle], pos[e.plus_triangle])
        assert d[0] * e.normal[1] == d[1] * e.normal[0]
        assert d[0] * e.normal[0] + d[1] * e.normal[1] > 0


def test_region_counts(p2_curve, blowup_curve, a2d3_regions):
    assert len(bounded_regions(p2_curve)) == 1
    assert len(bounded_regions(blowup_curve)) == 1
    assert len(a2d3_regions) == 2


def test_region_edge_alignment(p2_region, blowup_region, a2d3_regions):
    for region in (p2_region, blowup_region) + tuple(a2d3_regions):
        r = len(region.fan.rays)
        assert len(region.edge_keys) == r
        cycle = region_cycle(region)
        assert len(cycle) == r
        v = region.dual_vertex
        curve = region.curve
        assert sorted(cycle) == sorted(curve.vertices[t] for t in stars(curve.sub)[v])
        for j, u in enumerate(region.fan.rays):
            a, b = region.edge_keys[j]
            assert {a, b} == {v, (v[0] + u[0], v[1] + u[1])}


def test_region_epsilon_identity(p2_region, blowup_region, a2d3_regions):
    """Boundary edge j runs ccw along -rot90(u_j), parallel to its stored tangent.

    So the sign eps_j with eps_j * n_e = -rot90(u_j) exists for every edge,
    which is why the balancing rows come from the fan rays alone.
    """
    for region in (p2_region, blowup_region) + tuple(a2d3_regions):
        by_key = {e.key: e for e in region.curve.bounded}
        cycle = region_cycle(region)
        for j, u in enumerate(region.fan.rays):
            n_e = by_key[region.edge_keys[j]].normal
            want = vneg(rot90(u))
            assert n_e in (want, vneg(want))
            d = vsub(cycle[j], cycle[j - 1])
            assert d[0] * want[1] == d[1] * want[0]
            assert d[0] * want[0] + d[1] * want[1] > 0


def test_region_cycle_is_counterclockwise(blowup_region):
    cyc = region_cycle(blowup_region)
    r = len(cyc)
    area2 = sum(
        cyc[j - 1][0] * cyc[j][1] - cyc[j - 1][1] * cyc[j][0] for j in range(r)
    )
    assert area2 > 0


def test_a2d3_regions_are_pentagons(a2d3_regions):
    for region in a2d3_regions:
        assert len(region.fan.rays) == 5


def test_region_at_unknown_vertex(p2_curve):
    with pytest.raises(LatticeError, match="not an interior vertex"):
        region_at(p2_curve, (7, 7))


def test_legendre_matches_min_brute_force(a2d3_sub):
    f = legendre(a2d3_sub)
    for m in [(0, 0), (1, 1), (-2, 3), (Fraction(1, 2), Fraction(-3, 2))]:
        want = min(
            Fraction(p[0]) * m[0] + Fraction(p[1]) * m[1] + c
            for p, c in zip(a2d3_sub.points, a2d3_sub.nu)
        )
        assert f(m) == want
