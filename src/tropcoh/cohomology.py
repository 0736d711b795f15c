"""Line bundle cohomology on the smooth complete surface of a fan.

Dimensions come from cyclic sign patterns of ⟨m, u_j⟩ + a_j over a finite
search window; the divisor-coefficient sign convention is the opposite of
the usual toric one, so external cross-checks must negate coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .fan import Fan, is_smooth, self_intersections
from .lattice import (
    LatticeError, Vec, as_ints, cut_at_row, det2, dot, dual_numerators, row_thresholds,
    threshold_slabs,
)
from .spheres import SemiIntegralSupport, gamma_curve
from .winding import check_rows, h_even_odd, winding_runs


@dataclass(frozen=True)
class ToricSupport:
    """Integral per-cone linear parts; part j lives on the cone (u_j, u_{j+1})."""

    fan: Fan
    parts: tuple[Vec, ...]

    def __post_init__(self):
        r = len(self.fan.rays)
        for j in range(r):
            u = self.fan.rays[j]
            if dot(self.parts[j], u) != dot(self.parts[j - 1], u):
                raise LatticeError(f"linear parts disagree on ray {u}")

    def ray_value(self, j: int) -> int:
        return dot(self.parts[j], self.fan.rays[j])


def canonical_psi(fan: Fan) -> ToricSupport:
    """Support data of the canonical bundle: value -1 on every ray."""
    return psi_from_ray_values(fan, (-1,) * len(fan.rays))


def psi_from_ray_values(fan: Fan, values) -> ToricSupport:
    """Support data with the given value on each ray, in ray order."""
    if not is_smooth(fan):
        raise LatticeError("fan not smooth")
    vals = as_ints(values, "ray value")
    if len(vals) != len(fan.rays):
        raise LatticeError("one value per ray required")
    rays = fan.rays
    r = len(rays)
    # every cone has det 1, so the numerators are the solve itself
    parts = tuple(
        dual_numerators(rays[j], rays[(j + 1) % r], vals[j], vals[(j + 1) % r]) for j in range(r)
    )
    return ToricSupport(fan, parts)


def psi_from_theta(theta: SemiIntegralSupport) -> ToricSupport:
    """Mirror bundle data: half the canonical parts minus the sphere parts.

    Part j is (K_j - 2 theta_j) / 2.  K_j pairs to -1 and 2 theta_j to an
    odd number with rays j and j + 1, a basis of a smooth cone, so
    K_j - 2 theta_j pairs evenly with a basis and lies in 2Z^2.
    """
    kc = canonical_psi(theta.fan)
    parts = tuple(
        ((k0 - t0) // 2, (k1 - t1) // 2) for (k0, k1), (t0, t1) in zip(kc.parts, theta.doubled)
    )
    return ToricSupport(theta.fan, parts)


def divisor_coeffs(psi: ToricSupport) -> tuple[int, ...]:
    return tuple(psi.ray_value(j) for j in range(len(psi.fan.rays)))


def restriction_degrees(psi: ToricSupport) -> tuple[int, ...]:
    """Degree of the bundle on the torus-fixed curve of each ray."""
    a = divisor_coeffs(psi)
    b = self_intersections(psi.fan)
    r = len(a)
    return tuple(a[j - 1] + a[(j + 1) % r] + b[j] * a[j] for j in range(r))


def serre_dual_psi(psi: ToricSupport) -> ToricSupport:
    kc = canonical_psi(psi.fan)
    parts = tuple(
        (k[0] - p[0], k[1] - p[1]) for k, p in zip(kc.parts, psi.parts)
    )
    return ToricSupport(psi.fan, parts)


@dataclass(frozen=True)
class CohomologyDims:
    h0: int
    h1: int
    h2: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def _run_starts(signs: list[bool], j: int) -> bool:
    """Whether a maximal cyclic block of False entries starts at index j."""
    return not signs[j] and signs[j - 1]


def _minus_runs(signs: list[bool]) -> int:
    """Number of maximal cyclic blocks of False entries."""
    return sum(prev and not cur for prev, cur in zip(signs[-1:] + signs, signs))


def _search_box(fan: Fan, coeffs, margin: int) -> tuple[int, int, int, int]:
    """The box of every crossing of two level lines, rounded outward and padded by 1 + margin.

    The crossing of the level lines of u and v is m = (mx, my) / det(u, v);
    one divmod per coordinate gives its floor and its ceiling.
    """
    floors, ceils = [], []
    for (i, u), (j, v) in combinations(enumerate(fan.rays), 2):
        d = det2(u, v)
        if d == 0:
            continue
        a, b = -coeffs[i], -coeffs[j]
        if d < 0:
            d, a, b = -d, -a, -b
        mx, my = dual_numerators(u, v, a, b)
        qx, rx = divmod(mx, d)
        qy, ry = divmod(my, d)
        floors.append((qx, qy))
        ceils.append((qx + (rx > 0), qy + (ry > 0)))
    if not floors:
        raise LatticeError("a complete fan has crossing level lines")
    pad = 1 + margin
    xmin, ymin = map(min, zip(*floors))
    xmax, ymax = map(max, zip(*ceils))
    return (xmin - pad, ymin - pad, xmax + pad, ymax + pad)


def _level_lines(rays, coeffs, box):
    """Yield (j, line): the level line of each ray u_j with u0 != 0 as a threshold line.

    On row y the value <m, u_j> + a_j = u0 x + c, c = u1 y + a_j, is
    monotone in x, so sign j flips at one integer threshold t.  For u0 > 0
    the points x >= t are >= 0, with t = ceil(-c / u0): the line
    (-a_j, -u1, u0).  For u0 < 0 the points x < t are >= 0, with
    t = floor(c / -u0) + 1 = ceil((c + 1) / -u0): the line (a_j + 1, u1, -u0).
    Each line spans the box's rows.
    """
    ymin, ymax = box[1], box[3]
    for j, ((u0, u1), a) in enumerate(zip(rays, coeffs)):
        if u0 > 0:
            yield j, (ymin, ymax, -a, -u1, u0)
        elif u0 < 0:
            yield j, (ymin, ymax, a + 1, u1, -u0)


def _patterns(psi: ToricSupport, margin: int, by_slabs: bool):
    """Yield (a, x0, x1, k, n): in the slab from row a, positions x0 <= x < x1 add n to h^k each.

    Left of every threshold the sign of ray j is < 0 for u0 > 0, >= 0 for
    u0 < 0, and that of c = u1 y + a_j for u0 = 0; passing the threshold
    (t, i) flips the sign of ray ray_of[i].  On a row, lo = xmin and
    hi = xmax + 1 bound the box and the thresholds are the t; thresholds
    at or left of lo flip before the first run, and the last run ends at
    hi.  On a slab of n rows, lo and hi are n times those and the
    thresholds are the sums of t, so x1 - x0 is a run's total length.  A
    pattern that is all >= 0 adds one to h^0, all < 0 one to h^2, and a
    mixed one (number of negative runs - 1) to h^1; runs that add nothing
    are skipped.  A run that adds something on an edge row, or at lo or hi,
    means the box is too small.

    Besides the cuts of lattice.threshold_slabs, the slabs start where a
    level line meets the box's vertical edges and where c changes sign for
    u0 = 0, and the two edge rows are slabs of their own.  by_slabs=False
    yields every row.
    """
    fan = psi.fan
    if not is_smooth(fan):
        raise LatticeError("fan not smooth")
    coeffs = divisor_coeffs(psi)
    box = _search_box(fan, coeffs, margin)
    xmin, ymin, xmax, ymax = box
    check_rows(ymax - ymin + 1, "the cohomology search box")
    ray_of, lines = zip(*_level_lines(fan.rays, coeffs, box))
    r = len(fan.rays)
    left = [u0 < 0 for u0, _ in fan.rays]
    flat = [(j, u1, a) for j, ((u0, u1), a) in enumerate(zip(fan.rays, coeffs)) if u0 == 0]
    starts = {ymin + 1, ymax}
    for _, _, n0, n1, den in lines:
        for x in (xmin, xmax):
            # the threshold passes x where n0 + n1 y = den x
            cut_at_row(starts, den * x - n0, n1)
    for _, u1, a in flat:
        cut_at_row(starts, -a, u1)
    if by_slabs:
        pieces = threshold_slabs(lines, ymin, ymax, starts)
    else:
        pieces = ((y, y, row_thresholds(lines, y)) for y in range(ymin, ymax + 1))
    for a, b, thresholds in pieces:
        lo, hi = (b - a + 1) * xmin, (b - a + 1) * (xmax + 1)
        edge = a == ymin or a == ymax
        signs = left.copy()
        for j, u1, c in flat:
            signs[j] = u1 * a + c >= 0
        skip = 0
        for t, i in thresholds:
            if t > lo:
                break
            j = ray_of[i]
            signs[j] = not signs[j]
            skip += 1
        positive = sum(signs)
        runs = _minus_runs(signs)
        x0 = lo
        for t, i in thresholds[skip:] + [(hi, None)]:
            if t > x0:
                if t > hi:
                    t = hi
                if positive == r:
                    k, n = 0, 1
                elif positive == 0:
                    k, n = 2, 1
                else:
                    k, n = 1, runs - 1
                if n:
                    if edge or x0 == lo or t == hi:
                        raise LatticeError("search region too small")
                    yield a, x0, t, k, n
                x0 = t
            if x0 == hi:
                break
            # flipping sign j can only start or end the blocks at j and j + 1
            j = ray_of[i]
            nxt = (j + 1) % r
            runs -= _run_starts(signs, j) + _run_starts(signs, nxt)
            signs[j] = not signs[j]
            runs += _run_starts(signs, j) + _run_starts(signs, nxt)
            positive += 1 if signs[j] else -1


def pattern_runs(psi: ToricSupport, margin: int = 0):
    """Yield (y, x0, x1, k, n): each lattice point x0 <= x < x1 of row y adds n to h^k.

    Each ray changes sign at one integer threshold per row, and the cyclic
    sign pattern is constant between consecutive thresholds.  A point that
    adds something on the box edge means the box is too small.
    """
    return _patterns(psi, margin, by_slabs=False)


def cohomology_dims(psi: ToricSupport, margin: int = 0) -> CohomologyDims:
    """Sum the sign-pattern runs of the search box padded by margin, slab by slab.

    Inside a slab of _patterns no threshold crosses another or a vertical
    box edge, so each run's total length is a difference of two sums of
    ceilings: O(r^2) slabs, each summed with O(r) floor_sums.
    """
    dims = [0, 0, 0]
    for _, x0, x1, k, n in _patterns(psi, margin, by_slabs=True):
        dims[k] += n * (x1 - x0)
    return CohomologyDims(*dims)


def p1_cohomology(d: int) -> tuple[int, int]:
    return (max(d + 1, 0), max(-d - 1, 0))


@dataclass(frozen=True)
class Witness:
    """A lattice point whose winding number differs from its sign-pattern value."""

    point: Vec
    winding: int
    sign_pattern: int


@dataclass(frozen=True)
class WindingTheoremReport:
    h_even: int
    h_odd: int
    dims: CohomologyDims
    ok: bool
    witness: Optional[Witness] = None


def _first_difference(theta: SemiIntegralSupport, psi: ToricSupport) -> Optional[Witness]:
    """The first point, by row and then by x, where w(m) differs from the sign value.

    The sign value is 1 where every <m, u_j> + a_j is >= 0 or every one is
    < 0, else 1 - (number of cyclic negative runs); it is (-1)^k n for a
    point that adds n to h^k, and 0 where the pattern sweep skips the point.
    """
    rows: dict[int, tuple[list, list]] = {}
    for y, x0, x1, w in winding_runs(gamma_curve(theta)):
        rows.setdefault(y, ([], []))[0].append((x0, x1, w))
    for y, x0, x1, k, n in pattern_runs(psi):
        rows.setdefault(y, ([], []))[1].append((x0, x1, -n if k == 1 else n))

    def value(runs, x):
        return next((v for x0, x1, v in runs if x0 <= x < x1), 0)

    for y in sorted(rows):
        wind, sign = rows[y]
        for x in sorted({x for x0, x1, _ in wind + sign for x in (x0, x1)}):
            w, v = value(wind, x), value(sign, x)
            if w != v:
                return Witness((x, y), w, v)
    return None


def verify_winding_theorem(theta: SemiIntegralSupport) -> WindingTheoremReport:
    even, odd = h_even_odd(theta)
    psi = psi_from_theta(theta)
    dims = cohomology_dims(psi)
    if even == dims.h0 + dims.h2 and odd == dims.h1:
        return WindingTheoremReport(even, odd, dims, True)
    return WindingTheoremReport(even, odd, dims, False, _first_difference(theta, psi))
