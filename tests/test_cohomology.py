"""Sign-pattern cohomology counts and the winding comparison."""

import math
import random
from fractions import Fraction

import pytest

import tropcoh.cohomology as cohomology
from box_scan import counting_points, mismatches, minus_runs, scan_cohomology_dims, sign_value, signs_at
from gen_cases import random_smooth_fan, random_theta, riemann_roch
from oracles import fraction_search_box, serre_dual_psi, winding
from tropcoh.cohomology import (
    CohomologyDims,
    ToricSupport,
    Witness,
    canonical_psi,
    cohomology_dims,
    divisor_coeffs,
    psi_from_ray_values,
    psi_from_theta,
    restriction_degrees,
    verify_winding_theorem,
)
from tropcoh.ext_chains import p1_cohomology
from tropcoh.fan import make_fan
from tropcoh.io import parse_input
from tropcoh.lattice import LatticeError
from tropcoh.spheres import (
    gamma_curve,
    kinks_of_theta,
    theta_from_twisting,
    twisting,
)
from tropcoh.tropical import region_at, tropical_curve
from tropcoh.winding import curve_lines

P2_FAN_RAYS = [(1, 0), (0, 1), (-1, -1)]
WORKED_ELL = (-14, 5, -14, -9)


@pytest.fixture(scope="module")
def p2_fan():
    return make_fan(P2_FAN_RAYS)


@pytest.fixture(scope="module")
def worked_psi(blowup_region):
    theta = theta_from_twisting(twisting(blowup_region, WORKED_ELL))
    return psi_from_theta(theta)


def test_canonical_psi_ray_values(p2_fan):
    psi = canonical_psi(p2_fan)
    assert divisor_coeffs(psi) == (-1, -1, -1)


def test_canonical_psi_needs_smooth_fan():
    fan = make_fan([(1, 0), (-1, 2), (-1, -1)])
    with pytest.raises(LatticeError, match="fan not smooth"):
        canonical_psi(fan)


def test_psi_from_ray_values_round_trip(p2_fan):
    psi = psi_from_ray_values(p2_fan, (2, -1, 4))
    assert divisor_coeffs(psi) == (2, -1, 4)


def test_psi_from_ray_values_length(p2_fan):
    with pytest.raises(LatticeError, match="one value per ray"):
        psi_from_ray_values(p2_fan, (1, 2))


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.5, 0, 0), "ray value 0 is 1.5, not an integer"),
        ((0, Fraction(1, 2), 0), "ray value 1 is Fraction(1, 2), not an integer"),
        ((0, 0, 2.0), "ray value 2 is 2.0, not an integer"),
        ((0, True, 0), "ray value 1 is True, not an integer"),
    ],
)
def test_psi_from_ray_values_refuses_entries_that_are_not_integers(p2_fan, values, message):
    # int() used to cut these down to a support silently
    with pytest.raises(LatticeError) as raised:
        psi_from_ray_values(p2_fan, values)
    assert str(raised.value) == message


def test_psi_from_ray_values_takes_integral_fractions(p2_fan):
    psi = psi_from_ray_values(p2_fan, (Fraction(2), -1, Fraction(8, 2)))
    assert psi == psi_from_ray_values(p2_fan, (2, -1, 4))
    assert all(type(x) is int for part in psi.parts for x in part)


def test_toric_support_consistency_check(p2_fan):
    with pytest.raises(LatticeError, match="linear parts disagree"):
        ToricSupport(p2_fan, ((0, 0), (1, 0), (0, 0)))


@pytest.mark.parametrize(
    "parts, message",
    [
        (((0, 0), (0, 0)), "2 support parts for 3 rays"),
        (((0, 0),) * 4, "4 support parts for 3 rays"),
        (((0, 0), (0.5, 0), (0, 0)), "support part 1 is (0.5, 0), not an integer pair"),
        (((0, 0), (0, 0), (0, 0, 0)), "support part 2 is (0, 0, 0), not an integer pair"),
        (((True, 0), (0, 0), (0, 0)), "support part 0 is (True, 0), not an integer pair"),
    ],
)
def test_toric_support_checks_its_shape(p2_fan, parts, message):
    # two parts used to raise IndexError, four passed, and floats failed inside the slab sums
    with pytest.raises(LatticeError) as raised:
        ToricSupport(p2_fan, parts)
    assert str(raised.value) == message


def test_worked_psi_parts(worked_psi):
    assert worked_psi.parts == ((0, 0), (-3, 0), (-3, 6), (-6, 6))


def test_worked_psi_coeffs_and_degrees(worked_psi):
    assert divisor_coeffs(worked_psi) == (0, 0, -3, 6)
    assert restriction_degrees(worked_psi) == (6, -3, 6, 3)


def test_restriction_degrees_of_canonical(p2_fan):
    assert restriction_degrees(canonical_psi(p2_fan)) == (-3, -3, -3)


def test_dims_trivial_and_canonical(p2_fan):
    assert cohomology_dims(psi_from_ray_values(p2_fan, (0, 0, 0))).as_tuple() == (1, 0, 0)
    assert cohomology_dims(canonical_psi(p2_fan)).as_tuple() == (0, 0, 1)


@pytest.mark.parametrize("a, h0", [(1, 10), (2, 28), (3, 55)])
def test_dims_p2_positive_multiples(p2_fan, a, h0):
    # value a on all three rays is the degree-3a bundle on the plane
    psi = psi_from_ray_values(p2_fan, (a, a, a))
    assert cohomology_dims(psi).as_tuple() == (h0, 0, 0)


def test_worked_example_dims(worked_psi):
    assert cohomology_dims(worked_psi).as_tuple() == (10, 3, 0)


def test_cohomology_dims_needs_smooth_fan():
    fan = make_fan([(1, 0), (-1, 2), (-1, -1)])
    psi = ToricSupport(fan, ((0, 0), (0, 0), (0, 0)))
    with pytest.raises(LatticeError, match="fan not smooth"):
        cohomology_dims(psi)


def test_p1_cohomology_values():
    assert p1_cohomology(3) == (4, 0)
    assert p1_cohomology(0) == (1, 0)
    assert p1_cohomology(-1) == (0, 0)
    assert p1_cohomology(-2) == (0, 1)
    assert p1_cohomology(-5) == (0, 4)


def test_serre_dual_is_an_involution(p2_fan):
    psi = psi_from_ray_values(p2_fan, (3, -2, 5))
    assert serre_dual_psi(serre_dual_psi(psi)).parts == psi.parts


def test_serre_duality_reverses_dims():
    rng = random.Random(20260823)
    fans = [
        make_fan(P2_FAN_RAYS),
        make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        make_fan([(1, 0), (0, 1), (-1, 2), (0, -1)]),
    ]
    for _ in range(100):
        fan = rng.choice(fans)
        values = [rng.randrange(-6, 7) for _ in fan.rays]
        psi = psi_from_ray_values(fan, values)
        dims = cohomology_dims(psi).as_tuple()
        dual = cohomology_dims(serre_dual_psi(psi)).as_tuple()
        assert dual == dims[::-1]


def test_verify_winding_theorem_worked_example(blowup_region):
    theta = theta_from_twisting(twisting(blowup_region, WORKED_ELL))
    rep = verify_winding_theorem(theta)
    assert rep.ok and rep.witness is None
    assert (rep.h_even, rep.h_odd) == (10, 3)
    assert rep.dims == CohomologyDims(10, 3, 0)


@pytest.mark.parametrize("k", range(-3, 4))
def test_verify_winding_theorem_p2_family(p2_region, k):
    theta = theta_from_twisting(twisting(p2_region, (2 * k + 1,) * 3))
    assert verify_winding_theorem(theta).ok


def _outcome(count, psi):
    try:
        return count(psi).as_tuple()
    except LatticeError as exc:
        return str(exc)


def test_sweep_matches_the_box_scan_on_random_supports():
    rng = random.Random(4411)
    outcomes = set()
    for _ in range(300):
        fan = random_smooth_fan(rng, 3, 7)
        psi = psi_from_ray_values(fan, [rng.randrange(-5, 6) for _ in fan.rays])
        got = _outcome(cohomology_dims, psi)
        assert got == _outcome(scan_cohomology_dims, psi), fan.rays
        if not isinstance(got, str):
            assert got[0] - got[1] + got[2] == riemann_roch(psi)
        outcomes.add(tuple(map(bool, got)))
    assert {(True, False, False), (False, True, False), (False, False, True)} <= outcomes


def test_riemann_roch_on_the_worked_example(worked_psi):
    assert riemann_roch(worked_psi) == 10 - 3 + 0


def test_verify_winding_theorem_far_beyond_the_box_scan(p2_region):
    # the box scan tested about 2.5e7 points per count here; the slabs sum 5e3 rows in closed form
    k = 5000
    theta = theta_from_twisting(twisting(p2_region, (2 * k + 1,) * 3))
    rep = verify_winding_theorem(theta)
    assert rep.ok and rep.witness is None
    assert (rep.h_even, rep.h_odd) == (k * (k + 1) // 2, 0)
    dims = rep.dims
    assert dims.h0 - dims.h1 + dims.h2 == riemann_roch(psi_from_theta(theta))


def test_verify_winding_theorem_at_twist_999999(p2_region):
    # about 5e5 rows each: exact totals from a few slabs, well below MAX_SWEEP_ROWS
    k = 499_999
    theta = theta_from_twisting(twisting(p2_region, (2 * k + 1,) * 3))
    rep = verify_winding_theorem(theta)
    assert rep.ok and rep.witness is None
    assert (rep.h_even, rep.h_odd) == (k * (k + 1) // 2, 0)
    dims = rep.dims
    assert dims.h0 - dims.h1 + dims.h2 == riemann_roch(psi_from_theta(theta))


def _shifted_psi(theta):
    """The mirror support with its last ray value raised by two: a planted defect."""
    psi = psi_from_theta(theta)
    values = list(divisor_coeffs(psi))
    values[-1] += 2
    return psi_from_ray_values(psi.fan, values)


def test_mismatch_names_the_first_witness(blowup_region, monkeypatch):
    theta = theta_from_twisting(twisting(blowup_region, WORKED_ELL))
    monkeypatch.setattr(cohomology, "psi_from_theta", _shifted_psi)
    rep = verify_winding_theorem(theta)
    assert not rep.ok
    # brute force, by rows and then by x, over a box holding both supports
    gamma = gamma_curve(theta)
    psi = _shifted_psi(theta)
    rays, coeffs = psi.fan.rays, divisor_coeffs(psi)
    first = next(
        Witness((x, y), winding(gamma, (x, y)), sign_value(rays, coeffs, (x, y)))
        for y in range(-20, 21)
        for x in range(-20, 21)
        if winding(gamma, (x, y)) != sign_value(rays, coeffs, (x, y))
    )
    assert rep.witness == first


def _bad_points(theta, by_slabs):
    """The number of points where w differs from the sign value (-1)^k n, summed over the runs of the one walk."""
    walk = cohomology._patterns(psi_from_theta(theta), by_slabs, curve_lines(gamma_curve(theta)))
    return sum(x1 - x0 for _, _, x0, x1, k, n, w in walk if w != (-n if k == 1 else n))


def test_the_walk_finds_no_mismatch_on_random_thetas():
    """Slab by slab and row by row, the walk counts no point where w and the sign value differ."""
    rng = random.Random(4413)
    nonzero = 0
    for _ in range(300):
        theta = random_theta(rng)
        assert _bad_points(theta, True) == _bad_points(theta, False) == 0, theta.doubled
        nonzero += verify_winding_theorem(theta).dims != CohomologyDims(0, 0, 0)
    assert nonzero > 250


@pytest.mark.parametrize("ell, bad", [(21, 20), (2001, 2000)])
def test_the_walk_counts_the_points_of_shifted_thresholds(p2_region, shifted_thresholds, ell, bad):
    """Every run keeps its length, so the totals pass; the slab count equals the row count."""
    theta = theta_from_twisting(twisting(p2_region, (ell,) * 3))
    assert _bad_points(theta, True) == _bad_points(theta, False) == bad
    if ell < 100:
        assert len(list(mismatches(theta, psi_from_theta(theta), 1))) == bad
    rep = verify_winding_theorem(theta)
    k = (ell - 1) // 2
    assert (rep.h_even, rep.h_odd) == (k * (k + 1) // 2, 0)
    assert not rep.ok


def test_shifted_thresholds_fail_with_the_first_witness(p2_region, shifted_thresholds):
    """On p2 cap_k1 the totals agree, and the walk names the box scan's first bad point."""
    theta = theta_from_twisting(twisting(p2_region, (3, 3, 3)))
    rep = verify_winding_theorem(theta)
    assert (rep.h_even, rep.h_odd, rep.dims.as_tuple()) == (1, 0, (0, 0, 1))
    assert not rep.ok
    m, w, v = next(mismatches(theta, psi_from_theta(theta), 1))
    assert rep.witness == Witness(m, w, v) == Witness((0, 1), 0, 1)


def test_search_box_check_is_not_an_assert(p2_fan, monkeypatch):
    monkeypatch.setattr(cohomology, "det2", lambda u, v: 0)
    with pytest.raises(LatticeError, match="crossing level lines"):
        cohomology._search_rows(p2_fan, (1, 1, 1))
    with pytest.raises(LatticeError, match="crossing level lines"):
        cohomology_dims(psi_from_ray_values(p2_fan, (1, 1, 1)))


def test_search_rows_are_the_crossings_rows_padded_by_one(p2_fan):
    # h0 = 55 fills x, y >= -3, x + y <= 3; the crossings are (-3, -3), (-3, 6), (6, -3)
    assert cohomology._search_rows(p2_fan, (3, 3, 3)) == (-4, 7)
    assert scan_cohomology_dims(psi_from_ray_values(p2_fan, (3, 3, 3))).as_tuple() == (55, 0, 0)


def _row_ends(rays, coeffs, y):
    """The lattice points of row y left and right of every level line, from the Fractions."""
    xs = [Fraction(-(u1 * y + a), u0) for (u0, u1), a in zip(rays, coeffs) if u0]
    return math.floor(min(xs)) - 1, math.ceil(max(xs)) + 1


def test_points_that_count_lie_between_the_crossings():
    """The lemma of cohomology._patterns, on random supports with 3 to 8 rays.

    A box scan padded by 3 finds no point that counts outside the crossings'
    box; the row sweep yields exactly the points it finds; and on every row
    the points left and right of every level line have one negative run.
    """
    rng = random.Random(1903)
    counted = rows = 0
    for _ in range(250):
        fan = random_smooth_fan(rng, 3, 8)
        spread = rng.choice((3, 6, 12))
        psi = psi_from_ray_values(fan, [rng.randrange(-spread, spread + 1) for _ in fan.rays])
        rays, coeffs = fan.rays, divisor_coeffs(psi)
        xmin, ymin, xmax, ymax = fraction_search_box(fan, coeffs, -1)
        scanned = {}
        for (x, y), k, n in counting_points(psi, 3):
            assert xmin <= x <= xmax and ymin <= y <= ymax, (rays, coeffs, (x, y))
            scanned[(x, y)] = (k, n)
        runs = cohomology._patterns(psi, False)
        swept = {(x, y): (k, n) for y, _, x0, x1, k, n, _ in runs for x in range(x0, x1)}
        assert swept == scanned, (rays, coeffs)
        dims = [0, 0, 0]
        for k, n in scanned.values():
            dims[k] += n
        assert cohomology_dims(psi) == CohomologyDims(*dims), (rays, coeffs)
        for y in range(ymin - 4, ymax + 5):
            for x in _row_ends(rays, coeffs, y):
                signs = signs_at(rays, coeffs, (x, y))
                assert any(signs) and minus_runs(signs) == 1, (rays, coeffs, (x, y))
            rows += 1
        counted += bool(scanned)
    assert counted > 200 and rows > 5000


def _swept_dims(psi):
    dims = [0, 0, 0]
    for _, _, x0, x1, k, n, _ in cohomology._patterns(psi, False):
        dims[k] += n * (x1 - x0)
    return CohomologyDims(*dims)


def _slab_matches_sweep(psi):
    got = _outcome(cohomology_dims, psi)
    assert got == _outcome(_swept_dims, psi), (psi.fan.rays, divisor_coeffs(psi))
    return got


def _scaled_psi(theta, factor):
    ell = kinks_of_theta(theta).ell
    return psi_from_theta(theta_from_twisting(twisting(theta.fan, tuple(factor * x for x in ell))))


def test_slab_dims_match_the_sweep_on_random_thetas(closed_form_slabs):
    outcomes = []
    for seed in (97, 11, 2026):
        rng = random.Random(seed)
        for _ in range(60):
            theta = random_theta(rng)
            for factor in (1, 7):
                outcomes.append(_slab_matches_sweep(_scaled_psi(theta, factor)))
    assert sum(h1 > 0 for _, h1, _ in outcomes) > 300
    assert sum(n > 1 for n in closed_form_slabs) > 300


def test_slab_dims_match_the_sweep_on_the_fixture_sets(fixture_dir, closed_form_slabs):
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
                checked.append(_slab_matches_sweep(_scaled_psi(theta, factor)))
    assert len(checked) == 15
    assert (10, 3, 0) in checked


def test_slab_dims_match_the_sweep_on_the_p2_ladder(p2_region, closed_form_slabs):
    for k in range(300):
        for sign in (1, -1):
            theta = theta_from_twisting(twisting(p2_region, (sign * (2 * k + 1),) * 3))
            psi = psi_from_theta(theta)
            dims = _slab_matches_sweep(psi)
            assert dims[0] - dims[1] + dims[2] == riemann_roch(psi)
    assert closed_form_slabs


def test_slab_dims_match_the_sweep_on_random_supports(closed_form_slabs):
    rng = random.Random(4412)
    outcomes = set()
    for _ in range(400):
        fan = random_smooth_fan(rng, 3, 7)
        spread = rng.choice((5, 30))
        psi = psi_from_ray_values(fan, [rng.randrange(-spread, spread + 1) for _ in fan.rays])
        outcomes.add(tuple(map(bool, _slab_matches_sweep(psi))))
    assert {(True, False, False), (False, True, False), (False, False, True)} <= outcomes
    assert sum(n > 1 for n in closed_form_slabs) > 300
