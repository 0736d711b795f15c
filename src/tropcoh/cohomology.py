"""Line bundle cohomology on the smooth complete surface of a fan.

Dimensions come from cyclic sign patterns of ⟨m, u_j⟩ + a_j, counted on
the rows between the crossings of their level lines; the
divisor-coefficient sign convention is the opposite of the usual toric one,
so external cross-checks must negate coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .fan import Fan, is_smooth, self_intersections
from .lattice import (
    LatticeError, Vec, as_ints, cut_at_row, det2, dot, dual_numerators, threshold_rows,
    threshold_slabs,
)
from .spheres import SemiIntegralSupport, gamma_curve
from .winding import check_rows, h_even_odd, winding_runs


@dataclass(frozen=True)
class ToricSupport:
    """Integral per-cone linear parts; part j lives on the cone (u_j, u_{j+1}).

    Building one checks that there is an integer pair per ray and that
    consecutive parts agree on the ray between them.
    """

    fan: Fan
    parts: tuple[Vec, ...]

    def __post_init__(self):
        r = len(self.fan.rays)
        if len(self.parts) != r:
            raise LatticeError(f"{len(self.parts)} support parts for {r} rays")
        for j, p in enumerate(self.parts):
            if not (type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
                raise LatticeError(f"support part {j} is {p!r}, not an integer pair")
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


def _search_rows(fan: Fan, coeffs) -> tuple[int, int]:
    """The rows of every crossing of two level lines, rounded outward and padded by one.

    The crossing of the level lines of u and v has y = my / det(u, v); its
    floor and its ceiling are two integer divisions.
    """
    lows, highs = [], []
    for (i, u), (j, v) in combinations(enumerate(fan.rays), 2):
        d = det2(u, v)
        if d == 0:
            continue
        a, b = -coeffs[i], -coeffs[j]
        if d < 0:
            d, a, b = -d, -a, -b
        my = dual_numerators(u, v, a, b)[1]
        lows.append(my // d)
        highs.append(-(-my // d))
    if not lows:
        raise LatticeError("a complete fan has crossing level lines")
    return min(lows) - 1, max(highs) + 1


def _level_lines(rays, coeffs, ymin: int, ymax: int):
    """Yield (j, line): the level line of each ray u_j with u0 != 0 as a threshold line.

    On row y the value <m, u_j> + a_j = u0 x + c, c = u1 y + a_j, is
    monotone in x, so sign j flips at one integer threshold t.  For u0 > 0
    the points x >= t are >= 0, with t = ceil(-c / u0): the line
    (-a_j, -u1, u0).  For u0 < 0 the points x < t are >= 0, with
    t = floor(c / -u0) + 1 = ceil((c + 1) / -u0): the line (a_j + 1, u1, -u0).
    Each line spans the rows ymin..ymax.
    """
    for j, ((u0, u1), a) in enumerate(zip(rays, coeffs)):
        if u0 > 0:
            yield j, (ymin, ymax, -a, -u1, u0)
        elif u0 < 0:
            yield j, (ymin, ymax, a + 1, u1, -u0)


def _patterns(psi: ToricSupport, by_slabs: bool):
    """Yield (a, x0, x1, k, n): in the slab from row a, positions x0 <= x < x1 add n to h^k each.

    A pattern that is all >= 0 adds one to h^0, all < 0 one to h^2, and a
    mixed one (number of negative runs - 1) to h^1.

    Lemma: a point that counts lies between the level lines' crossings.
    Suppose a pattern holds at m and along the whole ray m + s d.  For large
    s the sign of ray j is [<d, u_j> > 0], except for the at most two rays
    orthogonal to d; so the negative entries form one cyclic block, and the
    pattern is mixed and adds nothing.  A point that counts therefore lies
    in a bounded cell of the level-line arrangement, whose vertices are
    crossings of two level lines.  On a row, the run left of every threshold
    has the pattern of d = (-1, 0), exactly one negative run, and so has the
    run right of every threshold.

    So only the rows of _search_rows are walked, each row or slab from that
    left state: ray j is >= 0 for u0 < 0, < 0 for u0 > 0, and has the sign
    of c = u1 y + a_j for u0 = 0.  Passing the threshold (t, i) flips the
    sign of ray ray_of[i], and only the runs between two thresholds are
    yielded.  On a row the thresholds are the t; on a slab of n rows they
    are the sums of t, so x1 - x0 is a run's total length.  Besides the cuts
    of lattice.threshold_slabs, slabs start where c changes sign for
    u0 = 0.  by_slabs=False yields every row.
    """
    fan = psi.fan
    if not is_smooth(fan):
        raise LatticeError("fan not smooth")
    coeffs = divisor_coeffs(psi)
    ymin, ymax = _search_rows(fan, coeffs)
    check_rows(ymax - ymin + 1, "the cohomology search box")
    ray_of, lines = zip(*_level_lines(fan.rays, coeffs, ymin, ymax))
    r = len(fan.rays)
    left = [u0 < 0 for u0, _ in fan.rays]
    flat = [(j, u1, a) for j, ((u0, u1), a) in enumerate(zip(fan.rays, coeffs)) if u0 == 0]
    starts = set()
    for _, u1, a in flat:
        cut_at_row(starts, -a, u1)
    if by_slabs:
        pieces = threshold_slabs(lines, ymin, ymax, starts)
    else:
        pieces = threshold_rows(lines, ymin, ymax)
    for a, _, thresholds in pieces:
        signs = left.copy()
        for j, u1, c in flat:
            signs[j] = u1 * a + c >= 0
        # left of every threshold: one negative run, which adds nothing
        runs = 1
        k = n = x0 = 0
        for t, i in thresholds:
            if n and t > x0:
                yield a, x0, t, k, n
            # flipping sign j can only start or end the blocks at j and j + 1
            j = ray_of[i]
            nxt = (j + 1) % r
            runs -= _run_starts(signs, j) + _run_starts(signs, nxt)
            signs[j] = not signs[j]
            runs += _run_starts(signs, j) + _run_starts(signs, nxt)
            if runs:
                k, n = 1, runs - 1
            else:
                # no negative run: every sign is that of ray j
                k, n = (0 if signs[j] else 2), 1
            x0 = t


def pattern_runs(psi: ToricSupport):
    """Yield (y, x0, x1, k, n): each lattice point x0 <= x < x1 of row y adds n to h^k.

    Each ray changes sign at one integer threshold per row, and the cyclic
    sign pattern is constant between consecutive thresholds.
    """
    return _patterns(psi, by_slabs=False)


def cohomology_dims(psi: ToricSupport) -> CohomologyDims:
    """Sum the sign-pattern runs between the level lines' crossings, slab by slab.

    Inside a slab of _patterns no threshold crosses another, so each run's
    total length is a difference of two sums of ceilings: O(r^2) slabs,
    each summed with O(r) floor_sums.
    """
    dims = [0, 0, 0]
    for _, x0, x1, k, n in _patterns(psi, by_slabs=True):
        dims[k] += n * (x1 - x0)
    return CohomologyDims(*dims)


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
