"""Graded morphism counts along the surface/curve ladder."""

import dataclasses

import pytest

from oracles import BFEExpression, a2d_KC, a2d_kappa, express_in_BFE
from tropcoh import ext_chains
from tropcoh.ext_chains import (
    KINDS,
    A2dExample,
    SphericalPair,
    build_a2d_example,
    ext_total_dims,
    verify_a2d_configuration,
)
from tropcoh.lattice import LatticeError


def test_kinds_are_frozen():
    assert KINDS == (
        "point_intersection",
        "curve_in_surface",
        "surfaces_along_curve",
        "disjoint",
    )


class TestPairValidation:
    def test_unknown_kind(self):
        with pytest.raises(LatticeError, match="unknown pair kind"):
            SphericalPair("tangled")

    def test_missing_k(self):
        with pytest.raises(LatticeError, match="needs the restriction degree k"):
            SphericalPair("curve_in_surface")

    def test_missing_m(self):
        with pytest.raises(LatticeError, match="needs the curve self-intersection m"):
            SphericalPair("surfaces_along_curve", k=0)

    def test_unwanted_k(self):
        with pytest.raises(LatticeError, match="takes no parameter k"):
            SphericalPair("point_intersection", k=1)

    def test_unwanted_m(self):
        with pytest.raises(LatticeError, match="takes no parameter m"):
            SphericalPair("curve_in_surface", k=0, m=-1)


def test_point_intersection_dims():
    assert ext_total_dims(SphericalPair("point_intersection")) == (0, 1, 0, 0)


def test_disjoint_dims():
    assert ext_total_dims(SphericalPair("disjoint")) == (0, 0, 0, 0)


@pytest.mark.parametrize("k", range(-5, 6))
def test_curve_in_surface_total(k):
    """Total dimension one exactly for the two adjacent-degree twists."""
    dims = ext_total_dims(SphericalPair("curve_in_surface", k=k))
    assert (sum(dims) == 1) == (k in (0, 1))


@pytest.mark.parametrize("k", range(-5, 6))
@pytest.mark.parametrize("m", range(-5, 6))
def test_surfaces_along_curve_total(k, m):
    dims = ext_total_dims(SphericalPair("surfaces_along_curve", k=k, m=m))
    assert (sum(dims) == 0) == (k + m == -1)


def test_curve_in_surface_closed_form():
    assert ext_total_dims(SphericalPair("curve_in_surface", k=0)) == (1, 0, 0, 0)
    assert ext_total_dims(SphericalPair("curve_in_surface", k=1)) == (0, 0, 1, 0)
    assert ext_total_dims(SphericalPair("curve_in_surface", k=-1)) == (2, 1, 0, 0)
    assert ext_total_dims(SphericalPair("curve_in_surface", k=2)) == (0, 1, 2, 0)


def test_build_rejects_nonpositive_d():
    with pytest.raises(LatticeError, match="d must be positive"):
        build_a2d_example(0)


def test_build_d1_is_a_single_object():
    ex = build_a2d_example(1)
    assert ex.chain == ("N1",)
    assert ex.K == ()
    assert verify_a2d_configuration(ex).ok


def test_build_d3_chain_and_ladder_data():
    ex = build_a2d_example(3)
    assert ex.chain == ("N1", "L1", "N2", "L2", "N3")
    assert ex.kappa == ((0, -1, 0, -1, -1), (0, 0, -1, -1, -1))
    assert ex.K == ((-1, -1, -1, -2, -2), (0, -1, -1, -3, -2))
    assert ex.ell == ((-1, 1, -1, 0, 0), (0, -1, 1, -1, 0))
    assert ex.m == (-2,)


def test_kappa_is_half_the_twist_difference():
    for d in range(2, 7):
        ex = build_a2d_example(d)
        for kj, lj, cj in zip(ex.K, ex.ell, ex.kappa):
            assert tuple(a - b for a, b in zip(kj, lj)) == tuple(2 * c for c in cj)


def test_curve_classes_equal_the_closed_forms():
    """K_C, kappa and m, read off a2d_subdivision(d), are the hand-derived ladder data."""
    for d in (*range(1, 61), 200):
        ex = build_a2d_example(d)
        assert ex.K == tuple(a2d_KC(j) for j in range(1, d)), d
        assert ex.kappa == tuple(a2d_kappa(j) for j in range(1, d)), d
        assert ex.m == tuple(-j for j in range(2, d)), d


def test_build_names_the_surface_with_a_parity_clash(monkeypatch):
    monkeypatch.setattr(ext_chains, "_ell", lambda j: (0, 0, 0, 0, 1))
    with pytest.raises(LatticeError, match="surface 1: K_C .* differ in parity"):
        build_a2d_example(3)


def test_ladder_identity():
    ex = build_a2d_example(6)
    for j in range(1, ex.d - 1):
        assert -ex.kappa[j - 1][3] + ex.kappa[j][0] == j


@pytest.mark.parametrize("d", range(1, 6))
def test_verify_passes(d):
    rep = verify_a2d_configuration(build_a2d_example(d))
    assert rep.ok
    assert rep.failures == ()
    n = 2 * d - 1
    assert len(rep.checks) == n * (n - 1) // 2
    assert len(rep.assumptions) == 3
    assert any("sphericality" in a for a in rep.assumptions)


def test_d3_hits_all_four_kinds():
    rep = verify_a2d_configuration(build_a2d_example(3))
    assert {c.kind for c in rep.checks} == set(KINDS)


def test_mutation_trips_the_pair_check():
    ex = build_a2d_example(3)
    kappa = list(list(row) for row in ex.kappa)
    kappa[0][2] = 2
    bad = dataclasses.replace(ex, kappa=tuple(tuple(r) for r in kappa))
    rep = verify_a2d_configuration(bad)
    assert not rep.ok
    assert any("pair" in f for f in rep.failures)


def test_mutation_trips_the_halving_check():
    # entry 1 feeds no pair rule, so only the kappa recheck can catch it
    ex = build_a2d_example(3)
    kappa = list(list(row) for row in ex.kappa)
    kappa[0][1] = 0
    bad = dataclasses.replace(ex, kappa=tuple(tuple(r) for r in kappa))
    rep = verify_a2d_configuration(bad)
    assert not rep.ok
    assert any("half the twist difference" in f for f in rep.failures)
    assert all("pair" not in f for f in rep.failures)


@pytest.mark.parametrize("j", range(1, 7))
def test_express_in_BFE_accepts_ladder_classes(j):
    ex = build_a2d_example(j + 1)
    expr = express_in_BFE(ex.kappa[j - 1], j)
    if j % 2 == 1:
        assert (expr.b, expr.f, expr.e) == (-1, -(j + 1) // 2, 0)
    else:
        assert (expr.b, expr.f, expr.e) == (-1, -(j + 2) // 2, 1)


def test_express_in_BFE_rejects_wrong_pairings():
    with pytest.raises(LatticeError, match="disagrees with the intersection"):
        express_in_BFE((5, -1, 0, -1, -1), 1)


def test_bfe_string_forms():
    assert str(BFEExpression(-1, -1, 0)) == "-B - F"
    assert str(BFEExpression(-1, -2, 1)) == "-B - 2F + E"
    assert str(BFEExpression(0, 0, 0)) == "0"
