"""Winding numbers of the boundary value curve and intersection counts.

The curve has vertices in the half lattice, so doubling every coordinate
moves all ray casting into plain integer arithmetic with no rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import LatticeError, SizeLimitError, Vec, det2, dot, threshold_rows, threshold_slabs
from .spheres import GammaCurve, SemiIntegralSupport, gamma_curve


class GenericityError(LatticeError):
    """Raised when a probe direction is degenerate for the requested point."""


# A table lists every entry, so its box is capped; a sweep costs one pass per row.
MAX_TABLE_POINTS = 2_000_000
MAX_SWEEP_ROWS = 1_000_000


def check_rows(rows: int, what: str) -> None:
    """Reject a sweep over more than MAX_SWEEP_ROWS rows before it starts."""
    if rows > MAX_SWEEP_ROWS:
        raise SizeLimitError(
            f"{what} spans {rows} rows, above the limit of {MAX_SWEEP_ROWS}"
        )


def _on_curve(m: Vec) -> LatticeError:
    return LatticeError(f"lattice point ({m[0]}, {m[1]}) on the boundary curve")


def _segments(gamma: GammaCurve) -> tuple[list[tuple[int, int, int, int, int]], list[int]]:
    """The non-horizontal segments as threshold lines (y0, y1, n0, n1, den), and their signs.

    Segment j crosses the rows y0 <= y <= y1 at x_c = (n0 + n1 * y) / den,
    with den > 0, under the half-open rule ay <= y < by of a rightward ray
    cast; its sign is +1 for an upward segment.  A vertex that is a lattice
    point, or a horizontal edge through one, raises here, since the
    half-open rule gives those points to no segment.
    """
    doubled = gamma.doubled
    for x, y in doubled:
        if x % 2 == 0 and y % 2 == 0:
            raise _on_curve((x // 2, y // 2))
    lines, signs = [], []
    for i in range(len(doubled)):
        (ax, ay), (bx, by) = doubled[i - 1], doubled[i]
        if ay == by:
            if ay % 2 == 0:
                x = -(-min(ax, bx) // 2)
                if 2 * x <= max(ax, bx):
                    raise _on_curve((x, ay // 2))
            continue
        sign = 1 if by > ay else -1
        (lx, ly), (ux, uy) = ((ax, ay), (bx, by)) if sign > 0 else ((bx, by), (ax, ay))
        dy, dx = uy - ly, ux - lx
        # x_c = num / den with num = n0 + n1 * y on the rows ceil(ly/2) <= y < ceil(uy/2)
        lines.append((-(-ly // 2), -(-uy // 2) - 1, lx * dy - ly * dx, 2 * dx, 2 * dy))
        signs.append(sign)
    return lines, signs


def _pieces(gamma: GammaCurve, by_slabs: bool):
    """Yield (a, x0, x1, w): in the slab from row a, positions x0 <= x < x1 wind w != 0 times.

    On a row a run is the lattice points x0 <= x < x1; on a slab of
    lattice.threshold_slabs, x1 - x0 is its total length over the rows.
    The point left of every threshold winds 0 times, and passing segment
    j's threshold subtracts signs[j].  by_slabs=False yields every row.
    """
    lines, signs = _segments(gamma)
    if not lines:
        return
    first = min(line[0] for line in lines)
    last = max(line[1] for line in lines)
    check_rows(last - first + 1, "the winding sweep")
    _check_off_curve(lines)
    sweep = threshold_slabs if by_slabs else threshold_rows
    for a, _, thresholds in sweep(lines, first, last):
        w = prev = 0
        for t, j in thresholds:
            if w and t > prev:
                yield a, prev, t, w
            w -= signs[j]
            prev = t


def winding_runs(gamma: GammaCurve):
    """Yield (y, x0, x1, w): the lattice points x0 <= x < x1 of row y wind w != 0 times.

    Rows come in increasing order and runs from left to right.  Each curve
    segment crosses row y at most once, under the same half-open rule, at
    X = 2 * x_c in doubled coordinates.  The point (x, y) counts the
    crossing when x < x_c, that is when x < ceil(x_c), so every
    segment gives one integer threshold and the winding number is constant
    between consecutive thresholds.  A lattice point on the curve raises
    before the sweep starts, naming the first one by row, and so does a
    vertex that is a lattice point, since the half-open rule may give it to
    no segment.
    """
    return _pieces(gamma, by_slabs=False)


@dataclass(frozen=True)
class WindingTable:
    """Nonzero winding numbers over an integer box; the box edge is all zero."""

    entries: dict[Vec, int]
    bounds: tuple[int, int, int, int]

    def h_even_odd(self) -> tuple[int, int]:
        even = sum(w for w in self.entries.values() if w > 0)
        odd = -sum(w for w in self.entries.values() if w < 0)
        return even, odd


def winding_table(theta: SemiIntegralSupport) -> WindingTable:
    """The nonzero entries of the sweep, inside the curve's box padded by one."""
    gamma = gamma_curve(theta)
    xs, ys = zip(*gamma.doubled)
    # floor and ceil of half the doubled extremes
    xmin, ymin = min(xs) // 2 - 1, min(ys) // 2 - 1
    xmax, ymax = -(-max(xs) // 2) + 1, -(-max(ys) // 2) + 1
    points = (xmax - xmin + 1) * (ymax - ymin + 1)
    if points > MAX_TABLE_POINTS:
        raise SizeLimitError(
            f"winding table box has {points} points, above the limit of {MAX_TABLE_POINTS}"
        )
    entries = {}
    for y, x0, x1, w in winding_runs(gamma):
        if not (xmin < x0 and x1 <= xmax and ymin < y < ymax):
            raise LatticeError("winding must vanish on the box edge")
        for x in range(x0, x1):
            entries[(x, y)] = w
    return WindingTable(entries, (xmin, ymin, xmax, ymax))


def _check_off_curve(lines) -> None:
    """Raise for the lattice point on a segment that the row sweep would meet first.

    That is the least row, then the first segment in list order: the least
    y0 <= y <= y1 with n1 * y = -n0 (mod den).
    """
    found = None
    for y0, y1, n0, n1, den in lines:
        g = math.gcd(n1, den)
        if n0 % g:
            continue
        mod = den // g
        root = -(n0 // g) * pow(n1 // g, -1, mod) % mod
        y = y0 + (root - y0) % mod
        if y <= y1 and (found is None or y < found[1]):
            found = ((n0 + n1 * y) // den, y)
    if found is not None:
        raise _on_curve(found)


def h_even_odd(theta: SemiIntegralSupport) -> tuple[int, int]:
    """Totals of the positive and of the negative winding numbers."""
    return _curve_totals(gamma_curve(theta))


def _curve_totals(gamma: GammaCurve) -> tuple[int, int]:
    """The totals of h_even_odd, slab by slab.

    lattice.threshold_slabs cuts the rows into slabs on which the
    left-to-right order of the segments' thresholds is the same on every
    row, so each run's total length over a slab is a difference of two sums
    of ceilings, each summed in closed form by floor_sum.
    """
    even = odd = 0
    for _, x0, x1, w in _pieces(gamma, by_slabs=True):
        if w > 0:
            even += w * (x1 - x0)
        else:
            odd -= w * (x1 - x0)
    return even, odd


def winding_via_T(theta: SemiIntegralSupport, m: Vec, direction: Vec) -> int:
    """Count extrema of the scaling parameter along rays; an independent oracle.

    For each fan ray the probe line from m along the direction crosses the
    level line of that ray at parameter T; a crossing strictly inside the
    matching curve segment with T > 0 is a local extremum, and minima minus
    maxima is the winding number.
    """
    thetas = theta.thetas
    w = 0
    for j, u in enumerate(theta.fan.rays):
        den = dot(direction, u)
        if den == 0:
            raise GenericityError("perturb direction")
        t = (dot(thetas[j], u) - dot(m, u)) / den
        if t <= 0:
            continue
        p = (m[0] + t * direction[0], m[1] + t * direction[1])
        a, b = thetas[j - 1], thetas[j]
        d = (b[0] - a[0], b[1] - a[1])
        if d == (0, 0):
            if p == a:
                raise GenericityError("perturb direction")
            continue
        if det2((p[0] - a[0], p[1] - a[1]), d) != 0:
            raise LatticeError("ray crossing off its curve segment")
        if d[0] != 0:
            s = (p[0] - a[0]) / d[0]
        else:
            s = (p[1] - a[1]) / d[1]
        if s == 0 or s == 1:
            raise GenericityError("perturb direction")
        if not 0 < s < 1:
            continue
        w += 1 if det2(direction, d) > 0 else -1
    return w


def probe_directions():
    """Deterministic generic-direction candidates (1,0), (3,2), (5,-2), ..."""
    n = 0
    while True:
        q = (-1) ** (n + 1) * ((n + 1) // 2)
        yield (2 * n + 1, 2 * q)
        n += 1


def winding_via_T_auto(theta: SemiIntegralSupport, m: Vec, max_tries: int = 64) -> int:
    for tries, direction in enumerate(probe_directions()):
        if tries >= max_tries:
            break
        try:
            return winding_via_T(theta, m, direction)
        except GenericityError:
            continue
    raise GenericityError("perturb direction")
