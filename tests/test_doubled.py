"""The twist path in doubled integers against its Fraction versions in oracles.py.

theta_from_twisting, kinks_of_theta, psi_from_theta, the cohomology search
rows and the slab orders of the winding and cohomology totals carry 2 theta
as integer pairs.  Each must give the value the Fraction version gives, or
raise with the same message.
"""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tropcoh.cohomology as cohomology
import tropcoh.winding as winding
from gen_cases import random_theta
from oracles import (
    fraction_assert_semi_integral,
    fraction_canonical_seed,
    fraction_kinks_of_theta,
    fraction_psi_from_theta,
    fraction_search_box,
    fraction_slab_thresholds,
    fraction_theta_from_twisting,
)
from tropcoh import lattice, spheres
from tropcoh.cohomology import (
    _level_lines,
    _search_rows,
    divisor_coeffs,
    psi_from_theta,
    verify_winding_theorem,
)
from tropcoh.fan import make_fan
from tropcoh.io import parse_input
from tropcoh.lattice import LatticeError
from tropcoh.spheres import (
    SemiIntegralSupport,
    Twisting,
    gamma_curve,
    kinks_of_theta,
    theta_from_twisting,
    twisting,
)
from tropcoh.tropical import region_at, tropical_curve
from tropcoh.winding import _segments, h_even_odd

P2 = make_fan([(1, 0), (0, 1), (-1, -1)])
BIG = (10**6 + 1, 10**18 + 1)


def _outcome(f, *args):
    try:
        return f(*args)
    except LatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(f, oracle, *args):
    got = _outcome(f, *args)
    assert got == _outcome(oracle, *args), args
    return got


def _twistings():
    """Random thetas' twists x1, x7 and negated, then the p2 ladder and two huge p2 twists."""
    for seed in (97, 11, 2026):
        rng = random.Random(seed)
        for _ in range(40):
            theta = random_theta(rng)
            ell = kinks_of_theta(theta).ell
            for factor in (1, 7, -1):
                yield twisting(theta.fan, tuple(factor * x for x in ell))
    for k in range(300):
        for sign in (1, -1):
            yield twisting(P2, (sign * (2 * k + 1),) * 3)
    for ell in BIG:
        for sign in (1, -1):
            yield twisting(P2, (sign * ell,) * 3)


@pytest.fixture(scope="module")
def twistings():
    return list(_twistings())


def _fraction_search_rows(fan, coeffs):
    _, ymin, _, ymax = fraction_search_box(fan, coeffs, 0)
    return ymin, ymax


def test_theta_kinks_psi_and_box_match_the_fractions(twistings):
    assert len(twistings) == 3 * 40 * 3 + 600 + 4
    for tw in twistings:
        theta = _same(theta_from_twisting, fraction_theta_from_twisting, tw)
        assert all(type(x) is Fraction for part in theta.thetas for x in part)
        assert fraction_canonical_seed(tw.fan) == theta.thetas[0]
        assert kinks_of_theta(theta).ell == fraction_kinks_of_theta(theta) == tw.ell
        assert gamma_curve(theta).vertices == theta.thetas
        psi = _same(psi_from_theta, fraction_psi_from_theta, theta)
        coeffs = divisor_coeffs(psi)
        _same(_search_rows, _fraction_search_rows, psi.fan, coeffs)


@pytest.fixture
def slab_orders(monkeypatch):
    """Run lattice.slab_thresholds next to its Fraction version; record who asked and the slab sizes."""
    sizes = []
    caller = [None]

    def asking(kind, count):
        def wrapped(*args):
            caller.append(kind)
            try:
                return count(*args)
            finally:
                caller.pop()

        return wrapped

    slab_thresholds = lattice.slab_thresholds

    def checked(lines, a, b):
        got = slab_thresholds(lines, a, b)
        assert got == fraction_slab_thresholds(lines, a, b), (lines, a, b)
        sizes.append((caller[-1], b - a + 1))
        return got

    monkeypatch.setattr(winding, "_curve_totals", asking("cuts", winding._curve_totals))
    monkeypatch.setattr(cohomology, "cohomology_dims", asking("flips", cohomology.cohomology_dims))
    monkeypatch.setattr(lattice, "slab_thresholds", checked)
    return sizes


def test_slab_orders_match_the_fractions(twistings, slab_orders):
    for tw in twistings:
        if max(map(abs, tw.ell)) < 10**7:
            assert verify_winding_theorem(theta_from_twisting(tw)).ok
    assert sum(kind == "cuts" for kind, _ in slab_orders) > 800
    assert sum(kind == "flips" for kind, _ in slab_orders) > 750
    assert max(n for _, n in slab_orders) > 10**5


def test_slab_orders_at_a_twist_of_ten_to_the_eighteen(slab_orders):
    """Beyond the row limit the totals raise; the slab orders still agree over every line's span."""
    for sign in (1, -1):
        theta = theta_from_twisting(twisting(P2, (sign * BIG[1],) * 3))
        with pytest.raises(LatticeError, match="above the limit"):
            h_even_odd(theta)
        segments, _ = _segments(gamma_curve(theta))
        for y0, y1, *_ in segments:
            lattice.slab_thresholds(segments, y0, y1)
        psi = psi_from_theta(theta)
        coeffs = divisor_coeffs(psi)
        ymin, ymax = _search_rows(psi.fan, coeffs)
        level_lines = [line for _, line in _level_lines(psi.fan.rays, coeffs, ymin, ymax)]
        lattice.slab_thresholds(level_lines, ymin + 1, ymax - 1)
    assert len(slab_orders) == 2 * (len(segments) + 1)


H = Fraction(1, 2)
Z = Fraction(0)


def _doubled_reads(thetas):
    theta = SemiIntegralSupport(P2, tuple((int(2 * x), int(2 * y)) for x, y in thetas))
    return gamma_curve(theta).vertices, kinks_of_theta(theta).ell, psi_from_theta(theta)


def _fraction_reads(thetas):
    fraction_assert_semi_integral(P2, thetas)
    theta = SimpleNamespace(fan=P2, thetas=thetas)
    return thetas, fraction_kinks_of_theta(theta), fraction_psi_from_theta(theta)


@pytest.mark.parametrize(
    "thetas",
    [
        ((H, 0), (H + 1, 0), (H, 0)),  # part 1 pairs to 0 with ray 2
        ((H, 0), (Fraction(3, 2), H), (0, H)),  # half-odd pairings, but parts 0 and 1 differ on ray 1
        ((H, 0), (H, 1), (0, H)),  # part 1 pairs to 1 with ray 2
        ((Z, Z), (Z, Z), (Z, Z)),  # integral parts: no half-odd pairing
        ((H, 0), (H, Fraction(3, 2)), (-1, Fraction(3, 2))),  # the cap_k1 parts
    ],
)
def test_hand_built_supports_raise_the_fraction_messages(thetas):
    """Built from the doubled parts, a support checks itself as the Fraction twist path did."""
    _same(_doubled_reads, _fraction_reads, thetas)


@pytest.mark.parametrize(
    "fan, ell",
    [
        (P2, (2, 3, 3)),  # parity and balance
        (P2, (3, 3, 5)),  # balance
        (P2, (3, 3)),  # length
        (P2, (1, 1, 3, 1)),  # length
        (P2, (Fraction(7, 2), 3, 3)),  # not an integer
        (P2, (3.0, 3, 3)),  # not an integer
        (make_fan([(1, 0), (1, 2), (-1, -1)]), (1, 1, 1)),  # not smooth
    ],
)
def test_hand_built_invalid_twistings_raise_the_fraction_messages(fan, ell):
    got = _same(theta_from_twisting, fraction_theta_from_twisting, Twisting(fan, ell))
    assert isinstance(got, str)


def test_unclosed_and_odd_twistings_behind_a_silent_validation(monkeypatch):
    """With validate_twisting passing everything, the recurrence's own checks name the fault."""
    monkeypatch.setattr(spheres, "validate_twisting", lambda ell, fan: spheres.ValidationReport(()))
    for ell in ((1, 1, 3), (2, 3, 3), (2, 2, 2), (3, 1, 1)):
        got = _same(theta_from_twisting, fraction_theta_from_twisting, Twisting(P2, ell))
        assert isinstance(got, str)


def test_a_twisting_is_validated_once_per_job(p2_region, blowup_region, monkeypatch):
    calls = []
    validate = spheres.validate_twisting

    def counted(ell, source):
        calls.append(ell)
        return validate(ell, source)

    monkeypatch.setattr(spheres, "validate_twisting", counted)
    for region, ell in ((p2_region, (301, 301, 301)), (blowup_region, (-14, 5, -14, -9))):
        calls.clear()
        verify_winding_theorem(theta_from_twisting(twisting(region, ell)))
        assert calls == [ell]
    calls.clear()
    with pytest.raises(LatticeError, match="parity: edge 0"):
        theta_from_twisting(Twisting(p2_region.fan, (2, 3, 3)))
    assert calls == [(2, 3, 3)]


# (h_even, h_odd, (h0, h1, h2)) of every named set, as the Fraction path reported them
NAMED_REPORTS = {
    ("a2d_d3.json", "difference_c1"): (1, 0, (0, 0, 1)),
    ("a2d_d3.json", "difference_c2"): (1, 0, (0, 0, 1)),
    ("blowup_p2.json", "mixed_sign"): (10, 3, (10, 3, 0)),
    ("p2.json", "bad_parity"): (
        "LatticeError: invalid twisting numbers: parity: edge 0: twist 2 and self-intersection 1 "
        "differ mod 2; balance: edge sum (-1, 1) is not zero"
    ),
    ("p2.json", "cap_k1"): (1, 0, (0, 0, 1)),
    ("p2.json", "cap_k_minus2"): (1, 0, (1, 0, 0)),
}


def test_twist_path_takes_no_fraction_solve(fixture_dir):
    """The named sets give the same reports, and no module the twist path loads has the Fraction solve."""

    def report(region, values):
        rep = verify_winding_theorem(theta_from_twisting(twisting(region, values)))
        assert rep.ok
        return rep.h_even, rep.h_odd, rep.dims.as_tuple()

    got = {}
    for path in sorted(fixture_dir.glob("*.json")):
        doc = parse_input(path.read_bytes())
        curve = tropical_curve(doc.subdivision())
        for name, ts in doc.twisting_sets.items():
            got[(path.name, name)] = _outcome(report, region_at(curve, ts.region), ts.values)
    assert got == NAMED_REPORTS
    loaded = {name: module for name, module in sys.modules.items() if name.startswith("tropcoh")}
    assert {"tropcoh.lattice", "tropcoh.spheres", "tropcoh.winding", "tropcoh.cohomology"} <= set(loaded)
    assert [name for name, module in loaded.items() if hasattr(module, "solve_dual")] == []
