"""Twisting numbers, semi-integral support functions, and their boundary curves.

Twisting numbers live on the edges around one bounded region, indexed like
the rays of the region's fan.  Entry j couples to the edge dual to ray u_j,
which separates the cones (u_{j-1}, u_j) and (u_j, u_{j+1}).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .fan import Fan, balance, self_intersections
from .lattice import LatticeError, QVec, Vec, as_ints, det2, dot, dual_numerators, record
from .polytope import ValidationIssue, ValidationReport
from .tropical import BoundedRegion

RegionOrFan = Union[BoundedRegion, Fan]


def _fan_of(source: RegionOrFan) -> Fan:
    return source if isinstance(source, Fan) else source.fan


@record
class Twisting(NamedTuple):
    fan: Fan
    ell: tuple[int, ...]


def validate_twisting(ell, region: RegionOrFan) -> ValidationReport:
    fan = _fan_of(region)
    values = as_ints(ell, "twisting number")
    issues = []
    if len(values) != len(fan.rays):
        issues.append(
            ValidationIssue(
                "length", f"{len(values)} twisting numbers for {len(fan.rays)} edges"
            )
        )
        return ValidationReport(tuple(issues))
    b = self_intersections(fan)
    for j, (l, bj) in enumerate(zip(values, b)):
        if (l - bj) % 2 != 0:
            issues.append(
                ValidationIssue(
                    "parity",
                    f"edge {j}: twist {l} and self-intersection {bj} differ mod 2",
                )
            )
    sx, sy = balance(fan.rays, values)
    if (sx, sy) != (0, 0):
        issues.append(ValidationIssue("balance", f"edge sum ({sx}, {sy}) is not zero"))
    return ValidationReport(tuple(issues))


def _check_twisting(ell, source: RegionOrFan) -> None:
    """Raise a LatticeError that names every issue of validate_twisting."""
    issues = validate_twisting(ell, source).issues
    if issues:
        raise LatticeError(
            "invalid twisting numbers: " + "; ".join(f"{i.code}: {i.message}" for i in issues)
        )


def twisting(source: RegionOrFan, ell) -> Twisting:
    values = as_ints(ell, "twisting number")
    _check_twisting(values, source)
    return Twisting(_fan_of(source), values)


@record
class SemiIntegralSupport(NamedTuple):
    """Per-cone linear parts theta_j on the cone spanned by (u_j, u_{j+1}).

    doubled[j] is 2 theta_j as an integer pair.  Building one checks, once,
    that there is a part per ray and that part j pairs to a half-odd integer
    with rays j and j + 1; thetas is a Fraction view.
    """

    fan: Fan
    doubled: tuple[Vec, ...]

    def _check(self, *_) -> None:
        rays = self.fan.rays
        if len(self.doubled) != len(rays):
            raise LatticeError(f"{len(self.doubled)} theta parts for {len(rays)} rays")
        for j, t in enumerate(self.doubled):
            for k in (j, (j + 1) % len(rays)):
                x = dot(t, rays[k])
                if type(x) is not int:
                    raise LatticeError(f"doubled theta part {j} is {t!r}, not an integer pair")
                if x % 2 == 0:
                    raise LatticeError(
                        f"cone {j}: theta pairs to {x // 2} with ray {k}, not to a half-odd integer"
                    )

    @property
    def thetas(self) -> tuple[QVec, ...]:
        return tuple((Fraction(x, 2), Fraction(y, 2)) for x, y in self.doubled)


def _doubled_seed(fan: Fan) -> Vec:
    """Twice the canonical seed: the half-lattice point pairing to 1/2 mod 1 with
    the first two rays, reduced modulo the dual lattice into [0,1)^2."""
    u0, u1 = fan.rays[0], fan.rays[1]
    if det2(u0, u1) != 1:
        raise LatticeError("fan not smooth")
    # the seed is m / 2 mod 1 for the m with <m, u0> = <m, u1> = 1, and on a
    # pair with det 1 the numerators are that m
    x, y = dual_numerators(u0, u1, 1, 1)
    return (x % 2, y % 2)


def _doubled_thetas(fan: Fan, ell) -> tuple[Vec, ...]:
    """Every 2 theta_j: the doubled seed, then 2 theta_j = 2 theta_{j-1} + ell_j rot90(u_j)."""
    rays = fan.rays
    values = as_ints(ell, "twisting number")
    if len(values) != len(rays):
        raise LatticeError(f"{len(values)} twisting numbers for {len(rays)} edges")
    x, y = _doubled_seed(fan)
    parts = [(x, y)]
    for (u0, u1), l in zip(rays[1:], values[1:]):
        x, y = x - l * u1, y + l * u0
        parts.append((x, y))
    (u0, u1), l = rays[0], values[0]
    if (x - l * u1, y + l * u0) != parts[0]:
        raise LatticeError(f"twisting numbers {ell} do not close up around the fan")
    return tuple(parts)


def theta_from_twisting(tw: Twisting) -> SemiIntegralSupport:
    try:
        return SemiIntegralSupport(tw.fan, _doubled_thetas(tw.fan, tw.ell))
    except LatticeError:
        # the recurrence closes up with half-odd pairings exactly when
        # validate_twisting finds no issue, so a valid twisting is checked once
        _check_twisting(tw.ell, tw.fan)
        raise


def kinks_of_theta(theta: SemiIntegralSupport) -> Twisting:
    fan = theta.fan
    parts = theta.doubled
    ell = []
    for j, (u0, u1) in enumerate(fan.rays):
        (ax, ay), (bx, by) = parts[j - 1], parts[j]
        dx, dy = bx - ax, by - ay
        if dx * u0 + dy * u1 != 0:
            raise LatticeError("not a support function on Σ_C")
        # an integer step orthogonal to the primitive u_j is ell_j rot90(u_j) = ell_j (-u1, u0)
        ell.append(dy // u0 if u0 else -dx // u1)
    return Twisting(fan, tuple(ell))


def is_strictly_convex(theta: SemiIntegralSupport) -> str:
    """One of "convex", "concave", "neither" for the glued piecewise form."""
    ell = kinks_of_theta(theta).ell
    if all(l > 0 for l in ell):
        return "convex"
    if all(l < 0 for l in ell):
        return "concave"
    return "neither"


@record
class GammaCurve(NamedTuple):
    """Closed polygonal boundary value curve through the cone linear parts.

    doubled[i] is 2 v_i for vertex v_i, an integer pair; vertices is the Fraction view.
    """

    doubled: tuple[Vec, ...]

    def _check(self, *_) -> None:
        if not all(type(x) is int for v in self.doubled for x in v):
            raise LatticeError(f"curve vertices {self.doubled!r} are not all integer pairs")

    @property
    def vertices(self) -> tuple[QVec, ...]:
        return tuple((Fraction(x, 2), Fraction(y, 2)) for x, y in self.doubled)


def gamma_curve(theta: SemiIntegralSupport) -> GammaCurve:
    return GammaCurve(theta.doubled)
