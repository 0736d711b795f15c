"""Kink vectors, the balancing map, and divisor and canonical classes."""

import random
from math import gcd

import pytest
import sympy

from conftest import hex_grid
from oracles import (
    affine_part, dense_integer_kernel, dense_phi_matrix, fraction_kinks, region_check_cocycle, region_cycle,
    restriction_degree, sorted_fan_at_vertex, support_from_kinks, triangle_dot_divisor_kinks, triangle_points,
    wedge_canonical_KC,
)
from tropcoh.bundles import canonical_KC, divisor_kinks, phi_map
from tropcoh.examples import a2d_subdivision, blowup_p2
from tropcoh.fan import fan_at_vertex, self_intersections
from tropcoh.lattice import LatticeError, primitive, rot90, vneg, vsub
from tropcoh.polytope import check_cocycle, checked, edges, interior_edge_keys, kink_entry
from tropcoh.spheres import twisting
from tropcoh.tropical import bounded_regions, tropical_curve


def test_affine_parts_are_integral(blowup_sub):
    values = (1, 1, 1, 1, 0)
    for t, tri in enumerate(blowup_sub.triangles):
        m, c = affine_part(blowup_sub, values, t)
        assert all(type(x) is int for x in (*m, c))
        for i in tri:
            p = blowup_sub.points[i]
            assert m[0] * p[0] + m[1] * p[1] + c == values[i]


def test_p2_nu_kinks_are_three(p2_sub):
    """nu = sum_p nu(p) D_p: the hat classes weighted by nu give nu's kinks."""
    nu = (0, 1, 1, 1)
    hats = [divisor_kinks(p2_sub, p) for p in p2_sub.points]
    K = {key: sum(v * kink_entry(D, key) for D, v in zip(hats, nu)) for key in interior_edge_keys(p2_sub)}
    assert set(K.values()) == {3}
    assert K == fraction_kinks(p2_sub, nu)


def test_kinks_then_support_round_trip(p2_sub, blowup_sub, a2d3_sub):
    for sub, values in (
        (p2_sub, (0, 1, 1, 1)),
        (blowup_sub, (1, 1, 1, 1, 0)),
        (a2d3_sub, tuple(int(v) for v in a2d_subdivision(3).nu)),
    ):
        K = fraction_kinks(sub, values)
        assert fraction_kinks(sub, support_from_kinks(K, sub)) == K


def test_phi_map_shape(p2_curve, blowup_curve):
    phi = phi_map(p2_curve)
    assert len(phi.matrix) == 2
    assert len(phi.edge_order) == 3
    assert len(phi.matrix) == 2 * len(p2_curve.regions)
    phi2 = phi_map(blowup_curve)
    assert len(phi2.matrix) == 2
    assert len(phi2.edge_order) == 4


def test_phi_kernel_rank_p2(p2_curve):
    basis = phi_map(p2_curve).kernel_vectors()
    assert len(basis) == 1
    vec = basis[0]
    assert sorted(abs(v) for v in vec) == [1, 1, 1]
    assert len(set(vec)) == 1


@pytest.mark.parametrize("d, rank", [(2, 6), (3, 9), (4, 12)])
def test_phi_kernel_rank_a2d(d, rank):
    curve = tropical_curve(a2d_subdivision(d))
    assert len(phi_map(curve).kernel_vectors()) == rank


def test_kernel_vectors_annihilate(blowup_curve):
    phi = phi_map(blowup_curve)
    for vec in phi.kernel_vectors():
        K = dict(zip(phi.edge_order, vec))
        assert phi.apply(K) == (0, 0)


def test_canonical_KC_p2(p2_region):
    K = canonical_KC(p2_region)
    assert set(K.values()) == {-3}


def test_canonical_KC_blowup(blowup_region):
    K = canonical_KC(blowup_region)
    per_edge = tuple(K[key] for key in blowup_region.edge_keys)
    assert per_edge == (-2, -1, -2, -3)


def test_canonical_KC_a2d_legs(a2d3_regions):
    # edges leaving the region cycle but not on it carry kink one
    for region in a2d3_regions:
        K = canonical_KC(region)
        off_cycle = [v for key, v in K.items() if key not in region.edge_keys]
        assert 1 in off_cycle
        assert set(off_cycle) <= {0, 1}


def test_canonical_KC_is_balanced(a2d3_regions):
    curve = a2d3_regions[0].curve
    phi = phi_map(curve)
    for region in a2d3_regions:
        assert all(x == 0 for x in phi.apply(canonical_KC(region)))


def test_canonical_KC_matches_a_cycle_scan(oracle_subdivisions):
    """Oracle: kink 1 on every other bounded edge with an endpoint on the cycle, and Phi(K) = 0."""
    for sub in oracle_subdivisions:
        curve = tropical_curve(sub)
        phi = phi_map(curve)
        for region in bounded_regions(curve):
            b = self_intersections(region.fan)
            want = {key: 0 for key in interior_edge_keys(sub)}
            want.update((key, -b[j] - 2) for j, key in enumerate(region.edge_keys))
            cycle = region_cycle(region)
            for be in curve.bounded:
                on_cycle = curve.vertices[be.plus_triangle] in cycle or curve.vertices[be.minus_triangle] in cycle
                if on_cycle and be.key not in region.edge_keys:
                    want[be.key] = 1
            got = canonical_KC(region)
            # sparse: the scan's nonzero part, in key order, plus zero entries
            # only on the region's own edges; every absent key scans to 0
            assert {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}
            assert list(got) == sorted(got)
            assert set(got) <= set(want)
            assert all(v != 0 or k in region.edge_keys for k, v in got.items())
            assert all(want[k] == 0 for k in set(want) - set(got))
            assert not any(phi.apply(got))


def test_canonical_KC_equals_the_wedge_oracle(oracle_subdivisions):
    """Entry for entry, zeros and key order included, against the earlier wedge walk."""
    for sub in oracle_subdivisions:
        for region in bounded_regions(tropical_curve(sub)):
            assert list(canonical_KC(region).items()) == list(wedge_canonical_KC(region).items())


def test_the_star_walk_gives_the_angle_sorted_fans_and_the_triangle_and_dot_hats(oracle_subdivisions):
    """fan_at_vertex and divisor_kinks read each star once, through checked(sub).link.

    At every interior vertex the fan is the angle sort of the star's directions, and at every
    point, boundary points too, the hat class is the one the rule that read each triangle
    whole gives, entry for entry and in key order.
    """
    for sub in (*oracle_subdivisions, hex_grid(12), a2d_subdivision(80)):
        for v in checked(sub).interior_vertices:
            assert fan_at_vertex(sub, v) == sorted_fan_at_vertex(sub, v)
        for p in sub.points:
            assert list(divisor_kinks(sub, p).items()) == list(triangle_dot_divisor_kinks(sub, p).items())


def test_check_cocycle_names_the_region_the_region_walk_named(oracle_subdivisions):
    """check_cocycle reads each edge once off the index; the oracle balances K round each region.

    Sums of hat classes balance. A random K, or such a sum with one entry moved, fails at one or
    more vertices, and both name the first of them in interior vertex order.
    """
    rng = random.Random(3)
    outcomes = set()
    for sub in (*oracle_subdivisions, blowup_p2(), hex_grid(6)):
        curve, keys = tropical_curve(sub), interior_edge_keys(sub)
        hats = [divisor_kinks(sub, p) for p in sub.points]
        for trial in range(6):
            coeffs = [rng.randrange(-3, 4) for _ in hats]
            K = {key: sum(c * kink_entry(hat, key) for c, hat in zip(coeffs, hats)) for key in keys}
            if trial % 3 == 1:
                K[rng.choice(keys)] += 1
            elif trial % 3 == 2:
                K = {key: rng.randrange(-3, 4) for key in keys}
            said = []
            for check in (lambda: check_cocycle(sub, K), lambda: region_check_cocycle(curve, K)):
                try:
                    check()
                    said.append("balanced")
                except LatticeError as exc:
                    said.append(str(exc))
            assert said[0] == said[1]
            outcomes.add(said[0] == "balanced")
    assert outcomes == {True, False}


def test_hat_classes_and_the_picard_basis_generate_one_lattice(oracle_subdivisions):
    """The divisor classes D_p of the points off the base triangle are a basis of ker Phi.

    Each kernel vector K is the kink vector of f = support_from_kinks(K),
    which vanishes on the base triangle, so K = sum_p f(p) D_p; the f values
    form a square matrix of determinant +-1, so the D_p generate the same
    lattice as the Picard basis.  At every point, D_p is the nonzero part of
    the hat function's kinks and balances around every region.
    """
    for sub in oracle_subdivisions:
        phi = phi_map(tropical_curve(sub))
        hats = {}
        for i, p in enumerate(sub.points):
            hats[p] = divisor_kinks(sub, p)
            hat = [int(j == i) for j in range(len(sub.points))]
            nonzero = {key: k for key, k in fraction_kinks(sub, hat).items() if k}
            assert {key: k for key, k in hats[p].items() if k} == nonzero
            assert not any(phi.apply(hats[p]))
        base = min(range(len(sub.triangles)), key=lambda t: tuple(sorted(triangle_points(sub, t))))
        off = [p for p in sub.points if p not in triangle_points(sub, base)]
        basis = phi.kernel_vectors()
        assert len(off) == len(basis)
        square = []
        for vec in basis:
            f = dict(zip(sub.points, support_from_kinks(dict(zip(phi.edge_order, vec)), sub)))
            assert all(f[p] == 0 for p in triangle_points(sub, base))
            combined = [sum(f[p] * kink_entry(hats[p], key) for p in sub.points) for key in phi.edge_order]
            assert combined == vec
            square.append([f[p] for p in off])
        assert abs(sympy.Matrix(square).det()) == 1


def test_kernel_equals_the_dense_echelon_on_phi(oracle_subdivisions):
    """The sparse echelon against the dense one, list for list, on the balancing map.

    hex_grid(12) replays about 3,400 column operations with 14-digit coefficients.
    """
    for sub in (*oracle_subdivisions, a2d_subdivision(40), a2d_subdivision(80), hex_grid(8), hex_grid(12)):
        phi = phi_map(tropical_curve(sub))
        want = dense_integer_kernel(phi.matrix, len(phi.edge_order))
        assert phi.kernel_vectors() == want


def test_phi_columns_give_the_dense_rows_and_their_product(oracle_subdivisions):
    """Phi's sparse columns against the dense rows they replace, and apply against the row product."""
    rng = random.Random(0)
    for sub in (*oracle_subdivisions, a2d_subdivision(40), hex_grid(8)):
        curve = tropical_curve(sub)
        phi, dense = phi_map(curve), dense_phi_matrix(curve)
        assert phi.matrix == dense and phi.nrows == len(dense)
        assert all(col == tuple(sorted(col)) and all(x for _, x in col) for col in phi.columns)
        for _ in range(5):
            K = {key: rng.randint(-9, 9) for key in phi.edge_order if rng.random() < 0.7}
            vec = [K.get(key, 0) for key in phi.edge_order]
            assert phi.apply(K) == tuple(sum(r * k for r, k in zip(row, vec)) for row in dense)


def test_the_kernel_leaves_phi_as_it_was():
    """The kernel builds its own dicts from phi's columns, so a second call finds them unchanged."""
    phi = phi_map(tropical_curve(hex_grid(5)))
    assert phi.kernel_vectors() == phi.kernel_vectors()


def _primitive_q(v):
    d = v[0].denominator * v[1].denominator // gcd(v[0].denominator, v[1].denominator)
    return primitive((int(v[0] * d), int(v[1] * d)))


def test_phi_matrix_matches_the_epsilon_construction(oracle_subdivisions):
    """Oracle: the rows as sums of eps_j * n_e, with n_e read off the curve's vertices."""
    for sub in oracle_subdivisions:
        curve = tropical_curve(sub)
        order = interior_edge_keys(sub)
        col = {key: i for i, key in enumerate(order)}
        pos = curve.vertices
        tangent = {
            be.key: _primitive_q(vsub(pos[be.minus_triangle], pos[be.plus_triangle])) for be in curve.bounded
        }
        rows = []
        for region in bounded_regions(curve):
            rx, ry = [0] * len(order), [0] * len(order)
            for key, u in zip(region.edge_keys, region.fan.rays):
                n = tangent[key]
                ccw = vneg(rot90(u))
                eps = 1 if n == ccw else -1
                assert (eps * n[0], eps * n[1]) == ccw
                rx[col[key]] += eps * n[0]
                ry[col[key]] += eps * n[1]
            rows += [tuple(rx), tuple(ry)]
        assert phi_map(curve).matrix == tuple(rows)


def test_restriction_degree(blowup_sub, blowup_region):
    K = canonical_KC(blowup_region)
    interior = [e for e in edges(blowup_sub) if not e.is_boundary]
    for e in interior:
        assert restriction_degree(K, e) == K.get(e.key, 0)
    boundary = next(e for e in edges(blowup_sub) if e.is_boundary)
    with pytest.raises(LatticeError, match="no compact curve"):
        restriction_degree(K, boundary)


KINK_FORMS = {
    "list": (lambda keys: [1] * len(keys), "kink vector is a list, not a mapping from edge keys"),
    "tuple": (lambda keys: (1,) * len(keys), "kink vector is a tuple, not a mapping from edge keys"),
    "empty-list": (lambda keys: [], "kink vector is a list, not a mapping from edge keys"),
    "empty-tuple": (lambda keys: (), "kink vector is a tuple, not a mapping from edge keys"),
    "float": (lambda keys: dict.fromkeys(keys, 0.9), "is 0.9, not an integer"),
    "bool": (lambda keys: dict.fromkeys(keys, True), "is True, not an integer"),
}


@pytest.mark.parametrize("form", KINK_FORMS)
@pytest.mark.parametrize("use", ["translate_sphere", "PhiMap.apply", "check_cocycle", "support_from_kinks"])
def test_a_kink_vector_is_a_mapping_to_integers(p2_sub, p2_curve, p2_region, use, form):
    """A list or tuple K, even an empty one, raises naming its type; a float or bool entry, its edge.

    int() used to truncate 0.9 to 0 and read True as 1, and a list K, the
    form picard reports, failed with a TypeError or was read as edge keys.
    The README's replacement for the removed translate_sphere, and the
    support_from_kinks oracle, read K through kink_entry and refuse it too.
    """
    keys = interior_edge_keys(p2_sub)
    build, message = KINK_FORMS[form]
    K = build(keys)
    calls = {
        "translate_sphere": lambda: twisting(
            p2_region, [l + 2 * kink_entry(K, key) for l, key in zip((3, 3, 3), p2_region.edge_keys)]
        ),
        "PhiMap.apply": lambda: phi_map(p2_curve).apply(K),
        "check_cocycle": lambda: check_cocycle(p2_sub, K),
        "support_from_kinks": lambda: support_from_kinks(K, p2_sub),
    }
    with pytest.raises(LatticeError) as raised:
        calls[use]()
    if isinstance(K, dict):
        assert str(raised.value) in {f"kink on edge {key} {message}" for key in keys}
    else:
        assert str(raised.value) == message
