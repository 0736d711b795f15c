"""Box-scan oracles: every lattice point of a bounding box tested on its own.

These are the counting routines the library used before its row sweeps.
They cost O(box area * r) and stay here as the reference the sweeps must
match entry for entry.
"""

from __future__ import annotations

import math

from tropcoh.cohomology import (
    CohomologyDims,
    _minus_runs,
    _search_box,
    divisor_coeffs,
)
from tropcoh.lattice import LatticeError
from tropcoh.spheres import gamma_curve
from tropcoh.winding import WindingTable, _cast


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
            w = _cast(doubled, (x, y))
            if w != 0:
                assert xmin < x < xmax and ymin < y < ymax, "winding on the box edge"
                entries[(x, y)] = w
    return WindingTable(entries, (xmin, ymin, xmax, ymax))


def signs_at(rays, coeffs, m) -> list[bool]:
    return [m[0] * u[0] + m[1] * u[1] + a >= 0 for u, a in zip(rays, coeffs)]


def sign_value(rays, coeffs, m) -> int:
    """1 if every <m, u_j> + a_j is >= 0 or every one is < 0, else 1 - negative runs."""
    signs = signs_at(rays, coeffs, m)
    if all(signs) or not any(signs):
        return 1
    return 1 - _minus_runs(signs)


def scan_cohomology_dims(psi, margin: int = 0) -> CohomologyDims:
    rays, coeffs = psi.fan.rays, divisor_coeffs(psi)
    xmin, ymin, xmax, ymax = _search_box(psi.fan, coeffs, margin)
    h0 = h1 = h2 = 0
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            signs = signs_at(rays, coeffs, (x, y))
            on_edge = x in (xmin, xmax) or y in (ymin, ymax)
            if all(signs):
                if on_edge:
                    raise LatticeError("search region too small")
                h0 += 1
            elif not any(signs):
                if on_edge:
                    raise LatticeError("search region too small")
                h2 += 1
            else:
                extra = _minus_runs(signs) - 1
                if extra:
                    if on_edge:
                        raise LatticeError("search region too small")
                    h1 += extra
    return CohomologyDims(h0, h1, h2)
