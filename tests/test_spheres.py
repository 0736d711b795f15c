"""Twisting numbers, half-integral supports, and boundary value curves."""

from fractions import Fraction

import pytest

from oracles import compact_support_class, fraction_canonical_seed
from tropcoh.bundles import canonical_KC
from tropcoh.fan import make_fan
from tropcoh.lattice import LatticeError, dot
from tropcoh import spheres
from tropcoh.polytope import ValidationReport, kink_entry
from tropcoh.spheres import (
    GammaCurve,
    SemiIntegralSupport,
    Twisting,
    gamma_curve,
    kinks_of_theta,
    theta_from_twisting,
    twisting,
    validate_twisting,
)

H = Fraction(1, 2)
P2 = make_fan([(1, 0), (0, 1), (-1, -1)])


def codes(report):
    return [i.code for i in report.issues]


class TestValidateTwisting:
    def test_good_values(self, p2_region):
        assert validate_twisting((3, 3, 3), p2_region).ok

    def test_length(self, p2_region):
        assert codes(validate_twisting((3, 3), p2_region)) == ["length"]

    def test_parity(self, p2_region):
        report = validate_twisting((2, 3, 3), p2_region)
        assert "parity" in codes(report)
        first = report.issues[0]
        assert "edge 0" in first.message
        assert "differ mod 2" in first.message

    def test_balance(self, p2_region):
        assert "balance" in codes(validate_twisting((3, 3, 5), p2_region))

    def test_fan_source(self):
        fan = make_fan([(1, 0), (0, 1), (-1, -1)])
        assert validate_twisting((1, 1, 1), fan).ok


def test_twisting_and_theta_name_every_issue(p2_region):
    both = (
        "invalid twisting numbers: parity: edge 0: twist 2 and self-intersection 1 differ mod 2; "
        "balance: edge sum (-1, 1) is not zero"
    )
    with pytest.raises(LatticeError) as raised:
        twisting(p2_region, (2, 3, 3))
    assert str(raised.value) == both
    with pytest.raises(LatticeError) as raised:
        theta_from_twisting(Twisting(p2_region.fan, (2, 3, 3)))
    assert str(raised.value) == both


@pytest.mark.parametrize(
    "ell, message",
    [
        ((3.9, 3, 3), "twisting number 0 is 3.9, not an integer"),
        ((3, Fraction(7, 2), 3), "twisting number 1 is Fraction(7, 2), not an integer"),
        ((3, 3, "3"), "twisting number 2 is '3', not an integer"),
        ((True, True, True), "twisting number 0 is True, not an integer"),
    ],
)
def test_twisting_refuses_entries_that_are_not_integers(p2_region, ell, message):
    # int() used to cut these down, so (3.9, 3, 3) was taken for (3, 3, 3)
    for source in (p2_region, p2_region.fan):
        with pytest.raises(LatticeError) as raised:
            twisting(source, ell)
        assert str(raised.value) == message
    # edge-keyed twisting numbers are not taken: ell is a sequence in fan order
    with pytest.raises(LatticeError):
        twisting(p2_region, dict(zip(p2_region.edge_keys, ell)))


def test_twisting_takes_integral_fractions(p2_region):
    tw = twisting(p2_region, (Fraction(3), Fraction(6, 2), 3))
    assert tw.ell == (3, 3, 3)
    assert all(type(x) is int for x in tw.ell)


def test_twisting_keeps_region(p2_region):
    """A twisting keeps its region's fan, and nothing else of the region."""
    tw = twisting(p2_region, (3, 3, 3))
    assert tw == Twisting(p2_region.fan, (3, 3, 3))
    assert tw.fan is p2_region.fan


def test_canonical_seed_p2():
    fan = make_fan([(1, 0), (0, 1), (-1, -1)])
    seed = theta_from_twisting(twisting(fan, (3, 3, 3))).thetas[0]
    assert seed == fraction_canonical_seed(fan) == (H, 0)
    # pairs half-integrally with the first two rays, reduced into [0,1)^2
    assert (2 * dot(seed, fan.rays[0])) % 2 == 1
    assert (2 * dot(seed, fan.rays[1])) % 2 == 1
    assert 0 <= seed[0] < 1 and 0 <= seed[1] < 1


def test_theta_parts_pair_half_integrally(blowup_region):
    theta = theta_from_twisting(twisting(blowup_region, (-14, 5, -14, -9)))
    r = len(theta.fan.rays)
    for j in range(r):
        for u in (theta.fan.rays[j], theta.fan.rays[(j + 1) % r]):
            val = dot(theta.thetas[j], u)
            assert (2 * val).denominator == 1
            assert (2 * val).numerator % 2 == 1


def test_worked_example_theta_parts(blowup_region):
    theta = theta_from_twisting(twisting(blowup_region, (-14, 5, -14, -9)))
    assert theta.thetas == (
        (0, H),
        (Fraction(5, 2), H),
        (Fraction(5, 2), Fraction(-13, 2)),
        (7, Fraction(-13, 2)),
    )


def test_kinks_of_theta_inverts_construction(p2_region, blowup_region):
    for region, ell in (
        (p2_region, (3, 3, 3)),
        (p2_region, (-3, -3, -3)),
        (blowup_region, (-14, 5, -14, -9)),
        (blowup_region, (2, 1, 2, 3)),
    ):
        tw = twisting(region, ell)
        back = kinks_of_theta(theta_from_twisting(tw))
        assert back.ell == tw.ell
        assert back.fan == tw.fan


def test_kinks_of_theta_rejects_non_support():
    # every part pairs half-oddly with its two rays, but parts 0 and 1 differ on ray 1
    assert P2.rays[1] == (1, 0)
    theta = SemiIntegralSupport(P2, ((1, 0), (3, 1), (0, 1)))
    with pytest.raises(LatticeError, match="not a support function"):
        kinks_of_theta(theta)


def test_support_names_a_part_that_pairs_to_an_integer():
    with pytest.raises(LatticeError, match="cone 1: theta pairs to 1 with ray 2, not to a half-odd integer"):
        SemiIntegralSupport(P2, ((1, 0), (1, 2), (0, 1)))


@pytest.mark.parametrize("count", [2, 4])
def test_support_needs_one_part_per_ray(count):
    parts = ((1, 0), (1, 3), (0, 3), (1, 0))[:count]
    with pytest.raises(LatticeError, match=f"{count} theta parts for 3 rays"):
        SemiIntegralSupport(P2, parts)


def test_support_and_curve_take_integer_pairs():
    # the cap_k1 parts and curve, not doubled
    halves = ((H, 0), (H, Fraction(3, 2)), (-1, Fraction(3, 2)))
    with pytest.raises(LatticeError, match=r"doubled theta part 0 is \(Fraction\(1, 2\), 0\), not an integer pair"):
        SemiIntegralSupport(P2, halves)
    with pytest.raises(LatticeError, match="curve vertices .* are not all integer pairs"):
        GammaCurve(halves)


def test_unclosed_twisting_is_named(monkeypatch):
    # validate_twisting rejects unbalanced numbers first; the closing check backs it up
    monkeypatch.setattr(spheres, "validate_twisting", lambda ell, fan: ValidationReport(()))
    tw = Twisting(make_fan([(1, 0), (0, 1), (-1, -1)]), (1, 1, 3))
    with pytest.raises(LatticeError, match=r"twisting numbers \(1, 1, 3\) do not close up"):
        theta_from_twisting(tw)


def test_gamma_vertices_live_in_the_half_lattice(p2_region):
    theta = theta_from_twisting(twisting(p2_region, (3, 3, 3)))
    for v in gamma_curve(theta).vertices:
        assert (2 * v[0]).denominator == 1
        assert (2 * v[1]).denominator == 1


def test_translate_sphere_shifts_by_twice_the_kinks(blowup_region):
    """The README's replacement for the removed translate_sphere: a shift by twice a cocycle is a twisting."""
    tw = twisting(blowup_region, (2, 1, 2, 3))
    K = canonical_KC(blowup_region)
    shifted = twisting(blowup_region, [l + 2 * kink_entry(K, key) for l, key in zip(tw.ell, blowup_region.edge_keys)])
    assert shifted.ell == (-2, -1, -2, -3)


def test_compact_support_class_detects_multiples(blowup_region):
    kc = canonical_KC(blowup_region)
    for a in (-2, -1, 0, 1, 3):
        K = {key: a * v for key, v in kc.items()}
        assert compact_support_class(K, blowup_region) == a


def test_compact_support_class_rejects_others(blowup_region):
    kc = canonical_KC(blowup_region)
    K = dict(kc)
    key = blowup_region.edge_keys[0]
    K[key] += 1
    assert compact_support_class(K, blowup_region) is None


def test_difference_sphere_values(gen_fixtures, p2_region, blowup_region):
    difference_sphere = gen_fixtures.difference_sphere
    assert difference_sphere(p2_region).ell == (3, 3, 3)
    assert difference_sphere(blowup_region).ell == (2, 1, 2, 3)


def test_difference_sphere_a2d(gen_fixtures, a2d3_regions):
    difference_sphere = gen_fixtures.difference_sphere
    by_vertex = {r.dual_vertex: r for r in a2d3_regions}
    assert difference_sphere(by_vertex[(1, 1)]).ell == (1, 1, 1, 2, 2)
    assert difference_sphere(by_vertex[(2, 1)]).ell == (2, 0, 1, 1, 3)
