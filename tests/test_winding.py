"""Winding numbers of boundary value curves against two oracles."""

import itertools
import random

import pytest

from box_scan import scan_winding_table
from gen_cases import random_theta
from oracles import check_rows_off_curve, convex_intersection_count, winding
from tropcoh.fan import make_fan
from tropcoh.io import parse_input
from tropcoh.lattice import LatticeError
from tropcoh.spheres import (
    GammaCurve,
    gamma_curve,
    is_strictly_convex,
    kinks_of_theta,
    theta_from_twisting,
    twisting,
)
from tropcoh.tropical import region_at, tropical_curve
from tropcoh.winding import (
    GenericityError,
    _curve_totals,
    h_even_odd,
    probe_directions,
    winding_runs,
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


def _curve(doubled):
    """A hand-made closed curve from doubled vertex coordinates."""
    return GammaCurve(tuple(doubled))


def _swept(gamma):
    return {(x, y): w for y, x0, x1, w in winding_runs(gamma) for x in range(x0, x1)}


HAND_MADE = {
    # clockwise triangle: winding -1 inside
    "clockwise": [(-1, -1), (-2, 9), (7, 0)],
    # pentagram: winding 2 in the middle, 1 in the points
    "pentagram": [(9, 5), (-9, 1), (8, -7), (-4, 9), (-2, -11)],
    # figure eight: +1 in one lobe, -1 in the other
    "figure_eight": [(-7, -5), (-7, 5), (7, -4), (7, 6)],
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_sweep_matches_the_cast_on_hand_made_curves(name):
    gamma = _curve(HAND_MADE[name])
    want = {}
    for x in range(-6, 7):
        for y in range(-6, 7):
            w = winding(gamma, (x, y))
            if w:
                want[(x, y)] = w
    assert want
    assert _swept(gamma) == want


def test_hand_made_curves_reach_every_winding_class():
    values = {name: set(_swept(_curve(d)).values()) for name, d in HAND_MADE.items()}
    assert values == {"clockwise": {-1}, "pentagram": {1, 2}, "figure_eight": {-1, 1}}


@pytest.mark.parametrize(
    "doubled, point",
    [
        # the slanted edge from (-1/2, -1/2) to (5/2, 1/2) passes through (1, 0)
        ([(-1, -1), (5, 1), (-1, 5)], (1, 0)),
        # the horizontal edge from (-1/2, 0) to (1/2, 0) passes through (0, 0)
        ([(-1, 0), (1, 0), (0, 3)], (0, 0)),
        # the vertex (0, 2) is a strict maximum of y: the half-open rule gives it
        # to neither of its edges
        ([(3, -1), (0, 4), (-3, -1)], (0, 2)),
    ],
)
def test_lattice_point_on_the_curve_is_named(doubled, point):
    gamma = _curve(doubled)
    message = rf"lattice point \({point[0]}, {point[1]}\) on the boundary curve"
    with pytest.raises(LatticeError, match=message):
        list(winding_runs(gamma))
    with pytest.raises(LatticeError, match=message):
        winding(gamma, point)


@pytest.mark.parametrize(
    "region, ell",
    [("p2_region", (k, k, k)) for k in (-41, -19, -5, 1, 7, 23, 41)]
    + [("blowup_region", tuple(k * x for x in WORKED_ELL)) for k in (-3, -1, 1, 3, 5)],
)
def test_table_matches_the_box_scan(request, region, ell):
    theta = theta_from_twisting(twisting(request.getfixturevalue(region), ell))
    table, scan = winding_table(theta), scan_winding_table(theta)
    assert table.bounds == scan.bounds
    assert table.entries == scan.entries
    assert h_even_odd(theta) == scan.h_even_odd()


def test_counterclockwise_check_is_not_an_assert(p2_region, monkeypatch):
    import oracles

    theta = theta_from_twisting(twisting(p2_region, (3, 3, 3)))
    flipped = GammaCurve(gamma_curve(theta).doubled[::-1])
    monkeypatch.setattr(oracles, "gamma_curve", lambda _: flipped)
    with pytest.raises(LatticeError, match="must run counterclockwise"):
        convex_intersection_count(theta)


def _swept_totals(gamma):
    # the per-row detector, so the sweep's on-curve messages do not come from _check_off_curve
    check_rows_off_curve(gamma)
    even = odd = 0
    for _, x0, x1, w in winding_runs(gamma):
        if w > 0:
            even += w * (x1 - x0)
        else:
            odd -= w * (x1 - x0)
    return even, odd


def _outcome(count, gamma):
    try:
        return count(gamma)
    except LatticeError as exc:
        return str(exc)


def _slab_matches_sweep(gamma):
    got = _outcome(_curve_totals, gamma)
    assert got == _outcome(_swept_totals, gamma), gamma.vertices
    return got


def _scaled(theta, factor):
    """The same fan with every twist times an odd factor: still admissible, and larger."""
    ell = kinks_of_theta(theta).ell
    return theta_from_twisting(twisting(theta.fan, tuple(factor * x for x in ell)))


def test_slab_totals_match_the_sweep_on_random_thetas(closed_form_slabs):
    outcomes = []
    for seed in (97, 11, 2026):
        rng = random.Random(seed)
        for _ in range(60):
            theta = random_theta(rng)
            for factor in (1, 7):
                outcomes.append(_slab_matches_sweep(gamma_curve(_scaled(theta, factor))))
    assert sum(odd > 0 for _, odd in outcomes) > 100
    assert sum(odd > 0 for _, odd in outcomes) > 300
    assert sum(n > 1 for n in closed_form_slabs) > 300


def test_slab_totals_match_the_sweep_on_the_fixture_sets(fixture_dir, closed_form_slabs):
    checked = []
    for path in sorted(fixture_dir.glob("*.json")):
        doc = parse_input(path.read_bytes())
        curve = tropical_curve(doc.subdivision())
        for name, ts in sorted(doc.twisting_sets.items()):
            try:
                theta = theta_from_twisting(twisting(region_at(curve, ts.region), ts.values))
            except LatticeError:
                continue
            for factor in (1, 5, 21):
                checked.append(_slab_matches_sweep(gamma_curve(_scaled(theta, factor))))
    assert len(checked) == 15
    assert (10, 3) in checked


def test_slab_totals_match_the_sweep_on_the_p2_ladder(p2_region, closed_form_slabs):
    for k in range(300):
        for sign in (1, -1):
            theta = theta_from_twisting(twisting(p2_region, (sign * (2 * k + 1),) * 3))
            assert _slab_matches_sweep(gamma_curve(theta)) == (k * (k + 1) // 2, 0)
    assert closed_form_slabs


def test_slab_totals_match_the_sweep_on_random_half_lattice_curves(closed_form_slabs):
    """Random closed curves, most of them through a lattice point: the same message or totals."""
    rng = random.Random(20261018)
    messages = set()
    raised = 0
    for _ in range(3000):
        size = rng.choice((3, 10, 40))
        doubled = [
            (rng.randrange(-size, size + 1), rng.randrange(-size, size + 1))
            for _ in range(rng.randrange(3, 7))
        ]
        got = _slab_matches_sweep(_curve(doubled))
        if isinstance(got, str):
            raised += 1
            messages.add(got)
    assert 2000 < raised < 2900
    assert len(messages) > 500
    assert sum(n > 1 for n in closed_form_slabs) > 200
