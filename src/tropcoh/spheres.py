"""Twisting numbers, semi-integral support functions, and their boundary curves.

Twisting numbers live on the edges around one bounded region, indexed like
the rays of the region's fan.  Entry j couples to the edge dual to ray u_j,
which separates the cones (u_{j-1}, u_j) and (u_j, u_{j+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .bundles import KinkVector, _check_cocycle, _kink_entry, canonical_KC
from .fan import Fan, balance, self_intersections
from .lattice import LatticeError, QVec, Vec, dot, rot90, solve_dual
from .polytope import ValidationIssue, ValidationReport, interior_edge_keys
from .tropical import BoundedRegion

RegionOrFan = Union[BoundedRegion, Fan]


def _fan_of(source: RegionOrFan) -> Fan:
    return source if isinstance(source, Fan) else source.fan


def _ell_tuple(ell, source: RegionOrFan) -> tuple[int, ...]:
    if isinstance(ell, Mapping):
        if isinstance(source, Fan):
            raise LatticeError("edge-keyed twisting numbers need a bounded region")
        return tuple(int(ell[key]) for key in source.edge_keys)
    return tuple(int(x) for x in ell)


@dataclass(frozen=True)
class Twisting:
    fan: Fan
    ell: tuple[int, ...]
    region: Optional[BoundedRegion] = None


def validate_twisting(ell, region: RegionOrFan) -> ValidationReport:
    fan = _fan_of(region)
    values = _ell_tuple(ell, region)
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
    _check_twisting(ell, source)
    region = source if isinstance(source, BoundedRegion) else None
    return Twisting(_fan_of(source), _ell_tuple(ell, source), region)


@dataclass(frozen=True)
class SemiIntegralSupport:
    """Per-cone linear parts theta_j on the cone spanned by (u_j, u_{j+1})."""

    fan: Fan
    thetas: tuple[QVec, ...]
    region: Optional[BoundedRegion] = None

    def ray_value(self, j: int) -> Fraction:
        return dot(self.thetas[j], self.fan.rays[j])


def _half(x: Fraction) -> bool:
    return (2 * x).denominator == 1 and (2 * x).numerator % 2 == 1


def _doubled(x) -> Optional[int]:
    """2x as an int when x has denominator 1 or 2, else None."""
    d = x.denominator
    return 2 * x.numerator if d == 1 else x.numerator if d == 2 else None


def _assert_semi_integral(fan: Fan, thetas) -> None:
    r = len(fan.rays)
    for j in range(r):
        t0, t1 = _doubled(thetas[j][0]), _doubled(thetas[j][1])
        for k in (j, (j + 1) % r):
            u = fan.rays[k]
            # on the half lattice, theta pairs to a half-odd integer when (2 theta).u is odd
            if t0 is not None and t1 is not None and (t0 * u[0] + t1 * u[1]) % 2:
                continue
            x = dot(thetas[j], u)
            if not _half(x):
                raise LatticeError(f"cone {j}: theta pairs to {x} with ray {k}, not to a half-odd integer")


def canonical_seed(fan: Fan) -> QVec:
    """Half-lattice point pairing to 1/2 mod 1 with the first two rays.

    Reduced modulo the dual lattice into [0,1)^2, which makes it the lex
    smallest admissible choice.
    """
    u0, u1 = fan.rays[0], fan.rays[1]
    d0 = solve_dual(u0, u1, Fraction(1), Fraction(0))
    d1 = solve_dual(u0, u1, Fraction(0), Fraction(1))
    seed = ((d0[0] + d1[0]) / 2 % 1, (d0[1] + d1[1]) / 2 % 1)
    return seed


def theta_from_twisting(tw: Twisting) -> SemiIntegralSupport:
    fan = tw.fan
    _check_twisting(tw.ell, fan)
    r = len(fan.rays)
    thetas = [canonical_seed(fan)]
    for j in range(1, r):
        step = rot90(fan.rays[j])
        half = Fraction(tw.ell[j], 2)
        prev = thetas[-1]
        thetas.append((prev[0] + half * step[0], prev[1] + half * step[1]))
    step = rot90(fan.rays[0])
    half = Fraction(tw.ell[0], 2)
    closed = (thetas[-1][0] + half * step[0], thetas[-1][1] + half * step[1])
    if closed != thetas[0]:
        raise LatticeError(f"twisting numbers {tw.ell} do not close up around the fan")
    _assert_semi_integral(fan, thetas)
    return SemiIntegralSupport(fan, tuple(thetas), tw.region)


def kinks_of_theta(theta: SemiIntegralSupport) -> Twisting:
    fan = theta.fan
    r = len(fan.rays)
    ell = []
    for j in range(r):
        delta = (
            theta.thetas[j][0] - theta.thetas[j - 1][0],
            theta.thetas[j][1] - theta.thetas[j - 1][1],
        )
        if dot(delta, fan.rays[j]) != 0:
            raise LatticeError("not a support function on Σ_C")
        step = rot90(fan.rays[j])
        coeff = delta[0] / step[0] if step[0] != 0 else delta[1] / step[1]
        two = 2 * coeff
        if two.denominator != 1:
            raise LatticeError("not a support function on Σ_C")
        ell.append(int(two))
    return Twisting(fan, tuple(ell), theta.region)


@dataclass(frozen=True)
class GammaCurve:
    """Closed polygonal boundary value curve through the cone linear parts."""

    vertices: tuple[QVec, ...]
    fan: Optional[Fan] = None


def gamma_curve(theta: SemiIntegralSupport) -> GammaCurve:
    _assert_semi_integral(theta.fan, theta.thetas)
    return GammaCurve(theta.thetas, theta.fan)


def translate_sphere(tw: Twisting, K: KinkVector) -> Twisting:
    if tw.region is None:
        raise LatticeError("twisting numbers are not attached to a bounded region")
    _check_cocycle(tw.region.curve, K)
    ell = tuple(
        l + 2 * _kink_entry(K, key) for l, key in zip(tw.ell, tw.region.edge_keys)
    )
    return twisting(tw.region, ell)


def compact_support_class(K: KinkVector, region: BoundedRegion) -> Optional[int]:
    """The multiple a with K = a * K_C when one exists."""
    kc = canonical_KC(region)
    keys = interior_edge_keys(region.curve.sub)
    a = None
    for key in keys:
        base = kc.get(key, 0)
        if base != 0:
            val = _kink_entry(K, key)
            if val % base != 0:
                return None
            a = val // base
            break
    if a is None:
        a = 0
    for key in keys:
        if _kink_entry(K, key) != a * kc.get(key, 0):
            return None
    return a


def difference_sphere(region: BoundedRegion) -> Twisting:
    """Twisting numbers of the sphere representing a difference of sections."""
    b = self_intersections(region.fan)
    return twisting(region, tuple(x + 2 for x in b))
