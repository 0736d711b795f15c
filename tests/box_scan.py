"""Box-scan oracles: every lattice point of a bounding box tested on its own.

These are the counting routines the library used before its row sweeps.
They cost O(box area * r) and stay here as the reference the sweeps must
match entry for entry.  The cohomology scan takes its box, every crossing
of two level lines rounded outward and padded, from the Fraction oracle.
"""

from __future__ import annotations

import math

from oracles import fraction_search_box, ray_cast
from tropcoh.cohomology import CohomologyDims, divisor_coeffs
from tropcoh.spheres import gamma_curve
from tropcoh.winding import WindingTable


def curve_box(gamma) -> tuple[int, int, int, int]:
    return (
        math.floor(min(v[0] for v in gamma.vertices)) - 1,
        math.floor(min(v[1] for v in gamma.vertices)) - 1,
        math.ceil(max(v[0] for v in gamma.vertices)) + 1,
        math.ceil(max(v[1] for v in gamma.vertices)) + 1,
    )


def scan_winding_table(theta) -> WindingTable:
    gamma = gamma_curve(theta)
    doubled = gamma.doubled
    xmin, ymin, xmax, ymax = curve_box(gamma)
    entries = {}
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            w = ray_cast(doubled, (x, y))
            if w != 0:
                assert xmin < x < xmax and ymin < y < ymax, "winding on the box edge"
                entries[(x, y)] = w
    return WindingTable(entries, (xmin, ymin, xmax, ymax))


def signs_at(rays, coeffs, m) -> list[bool]:
    return [m[0] * u[0] + m[1] * u[1] + a >= 0 for u, a in zip(rays, coeffs)]


def minus_runs(signs: list[bool]) -> int:
    """Number of maximal cyclic blocks of False entries: the indices where one starts."""
    return sum(signs[j - 1] and not signs[j] for j in range(len(signs)))


def sign_value(rays, coeffs, m) -> int:
    """1 if every <m, u_j> + a_j is >= 0 or every one is < 0, else 1 - negative runs."""
    signs = signs_at(rays, coeffs, m)
    if all(signs) or not any(signs):
        return 1
    return 1 - minus_runs(signs)


def mismatches(theta, psi, shift: int = 0):
    """Yield (m, w, v) for each point m, by row and then by x, whose winding number w differs from its sign value v.

    w is the ray cast at m moved left by shift, the winding number of a
    sweep with every threshold shift columns right.  The box holds the
    curve's box moved right by shift and the level lines' crossings.
    """
    gamma = gamma_curve(theta)
    rays, coeffs = psi.fan.rays, divisor_coeffs(psi)
    boxes = (curve_box(gamma), fraction_search_box(psi.fan, coeffs, 0))
    xmin, ymin = min(b[0] for b in boxes), min(b[1] for b in boxes)
    xmax, ymax = max(b[2] for b in boxes) + shift, max(b[3] for b in boxes)
    for y in range(ymin, ymax + 1):
        for x in range(xmin, xmax + 1):
            w = ray_cast(gamma.doubled, (x - shift, y))
            v = sign_value(rays, coeffs, (x, y))
            if w != v:
                yield (x, y), w, v


def counting_points(psi, margin: int = 0):
    """Yield (m, k, n) for each point m of the crossings' box, padded by 1 + margin, that adds n to h^k."""
    rays, coeffs = psi.fan.rays, divisor_coeffs(psi)
    xmin, ymin, xmax, ymax = fraction_search_box(psi.fan, coeffs, margin)
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            signs = signs_at(rays, coeffs, (x, y))
            if all(signs):
                yield (x, y), 0, 1
            elif not any(signs):
                yield (x, y), 2, 1
            else:
                extra = minus_runs(signs) - 1
                if extra:
                    yield (x, y), 1, extra


def scan_cohomology_dims(psi) -> CohomologyDims:
    dims = [0, 0, 0]
    for _, k, n in counting_points(psi):
        dims[k] += n
    return CohomologyDims(*dims)
