"""Winding numbers of boundary value curves against two oracles."""

import itertools

import pytest

from tropcoh.fan import make_fan
from tropcoh.lattice import LatticeError
from tropcoh.spheres import gamma_curve, theta_from_twisting, twisting
from tropcoh.winding import (
    GenericityError,
    convex_intersection_count,
    h_even_odd,
    is_strictly_convex,
    probe_directions,
    winding,
    winding_table,
    winding_via_T,
    winding_via_T_auto,
)

WORKED_ELL = (-14, 5, -14, -9)

WORKED_PLUS = [
    (3, -6), (3, -5), (3, -4), (3, -3), (4, -6),
    (4, -5), (4, -4), (5, -6), (5, -5), (6, -6),
]
WORKED_MINUS = [(1, 0), (2, -1), (2, 0)]


@pytest.fixture(scope="module")
def blowup_theta(blowup_region):
    return theta_from_twisting(twisting(blowup_region, WORKED_ELL))


def test_worked_example_table_is_frozen(blowup_theta):
    table = winding_table(blowup_theta)
    want = {p: 1 for p in WORKED_PLUS}
    want.update({p: -1 for p in WORKED_MINUS})
    assert table.entries == want


def test_worked_example_h_even_odd(blowup_theta):
    assert h_even_odd(blowup_theta) == (10, 3)


def test_entries_stay_inside_the_box(blowup_theta):
    table = winding_table(blowup_theta)
    xmin, ymin, xmax, ymax = table.bounds
    for x, y in table.entries:
        assert xmin < x < xmax
        assert ymin < y < ymax


def test_winding_matches_table_pointwise(blowup_theta):
    gamma = gamma_curve(blowup_theta)
    table = winding_table(blowup_theta)
    for p, w in table.entries.items():
        assert winding(gamma, p) == w
    assert winding(gamma, (0, 0)) == 0


def test_probe_sequence_is_frozen():
    first = list(itertools.islice(probe_directions(), 5))
    assert first == [(1, 0), (3, 2), (5, -2), (7, 4), (9, -4)]


def test_winding_via_T_needs_generic_direction(blowup_theta):
    # (0,1) pairs to zero with the horizontal rays of the fan
    with pytest.raises(GenericityError, match="perturb direction"):
        winding_via_T(blowup_theta, (0, 0), (0, 1))


def test_winding_via_T_auto_agrees_with_the_cast(blowup_theta):
    table = winding_table(blowup_theta)
    for p, w in table.entries.items():
        assert winding_via_T_auto(blowup_theta, p) == w
    for p in [(0, 0), (1, -1), (-1, 0), (5, 0), (0, -6)]:
        assert winding_via_T_auto(blowup_theta, p) == 0


def test_is_strictly_convex(p2_region, blowup_theta):
    conv = theta_from_twisting(twisting(p2_region, (3, 3, 3)))
    conc = theta_from_twisting(twisting(p2_region, (-3, -3, -3)))
    assert is_strictly_convex(conv) == "convex"
    assert is_strictly_convex(conc) == "concave"
    assert is_strictly_convex(blowup_theta) == "neither"


def test_convex_intersection_count_rejects_mixed(blowup_theta):
    with pytest.raises(LatticeError, match="convexity required"):
        convex_intersection_count(blowup_theta)


@pytest.mark.parametrize("k", range(-3, 4))
def test_p2_count_family(p2_region, k):
    """Twist 2k+1 on every edge meets k(k+1)/2 shifted lattice points."""
    ell = (2 * k + 1,) * 3
    theta = theta_from_twisting(twisting(p2_region, ell))
    want = abs(k * (k + 1) // 2)
    assert convex_intersection_count(theta) == want
    assert h_even_odd(theta) == (want, 0)


def test_empty_table_on_the_quadric():
    fan = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    theta = theta_from_twisting(twisting(fan, (0, 0, 0, 0)))
    table = winding_table(theta)
    assert table.entries == {}
    assert table.h_even_odd() == (0, 0)


def test_h_even_odd_signs(blowup_theta):
    table = winding_table(blowup_theta)
    even = sum(w for w in table.entries.values() if w > 0)
    odd = -sum(w for w in table.entries.values() if w < 0)
    assert table.h_even_odd() == (even, odd)
