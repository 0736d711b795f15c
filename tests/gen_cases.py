"""Seeded random smooth fans and admissible twisting numbers.

Shared by the oracle cross-check suite and the acceptance run.  Every draw is
driven by an explicit random.Random instance so the cases are reproducible.
"""

from __future__ import annotations

import random

from tropcoh.fan import Fan, make_fan, self_intersections
from tropcoh.lattice import det2, integer_kernel, rot90, vadd
from tropcoh.spheres import (
    SemiIntegralSupport,
    gamma_curve,
    theta_from_twisting,
    twisting,
)

P2 = ((1, 0), (0, 1), (-1, -1))
HIRZEBRUCH = tuple(((1, 0), (0, 1), (-1, a), (0, -1)) for a in range(4))
SEED_FANS = (P2,) + HIRZEBRUCH


def random_smooth_fan(rng: random.Random, min_rays: int = 5, max_rays: int = 9) -> Fan:
    """Grow a seed fan by star subdivisions until it has min_rays to max_rays rays.

    Inserting u_j + u_{j+1} between two adjacent rays keeps every consecutive
    determinant equal to one, so the result stays smooth and complete.
    """
    rays = list(rng.choice(SEED_FANS))
    target = rng.randrange(min_rays, max_rays + 1)
    while len(rays) < target:
        j = rng.randrange(len(rays))
        rays.insert(j + 1, vadd(rays[j], rays[(j + 1) % len(rays)]))
    return make_fan(rays)


def random_theta(
    rng: random.Random, max_ell: int = 12, max_span: int = 40
) -> SemiIntegralSupport:
    """A random admissible half-integral support on a random smooth fan.

    Starts from +-(b + 2), which satisfies both the parity and the balance
    constraint on any smooth complete fan, then shifts by even multiples of
    integral balance-kernel vectors.  Rejects cases with a twist beyond
    max_ell or a boundary curve wider than max_span.
    """
    for _ in range(200):
        fan = random_smooth_fan(rng)
        r = len(fan.rays)
        b = self_intersections(fan)
        kern = integer_kernel(
            [
                [rot90(u)[0] for u in fan.rays],
                [rot90(u)[1] for u in fan.rays],
            ],
            r,
        )
        s = rng.choice((1, -1))
        ell = [s * (bj + 2) for bj in b]
        for k in kern:
            c = rng.randrange(-3, 4)
            ell = [l + 2 * c * kj for l, kj in zip(ell, k)]
        if max(abs(l) for l in ell) > max_ell:
            continue
        theta = theta_from_twisting(twisting(fan, tuple(ell)))
        verts = gamma_curve(theta).vertices
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        if max(xs) - min(xs) > max_span or max(ys) - min(ys) > max_span:
            continue
        return theta
    raise AssertionError("rejection sampling failed to produce a case")


def positive_relation(rays) -> list[int]:
    """A strictly positive integer vector p with sum p_j u_j = 0.

    Each -u_j lies in a smooth cone (u_k, u_{k+1}), so -u_j = a u_k + b u_{k+1}
    with integers a, b >= 0; summing these relations over j gives p.
    """
    r = len(rays)
    p = [0] * r
    for j, u in enumerate(rays):
        w = (-u[0], -u[1])
        for k in range(r):
            a, b = rays[k], rays[(k + 1) % r]
            if det2(a, w) >= 0 and det2(w, b) >= 0:
                p[j] += 1
                p[k] += det2(w, b)
                p[(k + 1) % r] += det2(a, w)
                break
    return p


def random_definite_theta(rng: random.Random, sign: int) -> SemiIntegralSupport:
    """A strictly convex (sign 1) or concave (sign -1) support on a smooth fan with 3 to 9 rays.

    Twists ell_j = sign (b_j + 2 + 2 m p_j), with p from positive_relation:
    +-(b + 2) meets the parity and balance constraints, 2 m p keeps both, and
    2 m > |b_j + 2| gives every twist, so every kink, the sign of `sign`.
    """
    fan = random_smooth_fan(rng, 3, 9)
    b = self_intersections(fan)
    p = positive_relation(fan.rays)
    m = max(abs(x + 2) for x in b) // 2 + 1 + rng.randrange(3)
    return theta_from_twisting(twisting(fan, tuple(sign * (bj + 2 + 2 * m * pj) for bj, pj in zip(b, p))))


def zero_probe_points(bounds: tuple[int, int, int, int], count: int = 20):
    """Deterministic lattice points inside the table box, mostly zero entries."""
    xmin, ymin, xmax, ymax = bounds
    w = xmax - xmin
    h = ymax - ymin
    return [
        (xmin + (i * 7) % (w + 1), ymin + (i * 11) % (h + 1)) for i in range(count)
    ]


def riemann_roch(psi) -> int:
    """chi = 1 + (D.D - D.K)/2 for D = sum a_j D_j, from the rays alone.

    D_j.D_j = -det(u_{j-1}, u_{j+1}), D_j.D_{j+-1} = 1 and K = -sum D_j, so
    D.D_j = a_{j-1} + a_{j+1} + (D_j.D_j) a_j and D.K = -sum_j D.D_j.
    """
    from tropcoh.cohomology import divisor_coeffs
    from tropcoh.lattice import det2

    rays = psi.fan.rays
    a = divisor_coeffs(psi)
    r = len(rays)
    deg = [
        a[j - 1] + a[(j + 1) % r] - det2(rays[j - 1], rays[(j + 1) % r]) * a[j]
        for j in range(r)
    ]
    dd = sum(x * d for x, d in zip(a, deg))
    dk = -sum(deg)
    assert (dd - dk) % 2 == 0
    return 1 + (dd - dk) // 2


def cross_check(rng_seed: int, cases: int) -> tuple[int, int]:
    """Compare the sweeps with the box scans, the ray oracle and two identities.

    Per case: the winding table and the totals of verify_winding_theorem's
    walk equal the box scan's; the cohomology dimensions, from
    cohomology_dims and from that walk, equal the box scan's; on every point of a box
    holding both supports the winding number equals the sign-pattern value;
    h0 - h1 + h2 is the Riemann-Roch number; and the table entries and a few
    zero points agree with the ray oracle.  Asserts
    on the first disagreement; returns (nonempty tables, total entries) so
    callers can confirm the sample was not vacuous.
    """
    from box_scan import scan_cohomology_dims, scan_winding_table, sign_value
    from oracles import fraction_search_box, ray_cast
    from tropcoh.cohomology import (
        cohomology_dims,
        divisor_coeffs,
        psi_from_theta,
        verify_winding_theorem,
    )
    from tropcoh.winding import winding_table, winding_via_T_auto

    rng = random.Random(rng_seed)
    nonempty = 0
    entries = 0
    for _ in range(cases):
        theta = random_theta(rng)
        fan = theta.fan.rays
        table = winding_table(theta)
        scan = scan_winding_table(theta)
        assert table.bounds == scan.bounds, f"table bounds differ on fan {fan}"
        assert table.entries == scan.entries, f"table entries differ on fan {fan}"
        rep = verify_winding_theorem(theta)
        assert (rep.h_even, rep.h_odd) == scan.h_even_odd(), f"totals differ on fan {fan}"
        psi = psi_from_theta(theta)
        assert cohomology_dims(psi) == scan_cohomology_dims(psi), f"dims differ on fan {fan}"
        assert rep.dims == cohomology_dims(psi), f"the walk's dims differ on fan {fan}"
        assert rep.ok, f"cohomology disagrees with the cast on fan {fan}"
        dims = rep.dims
        assert dims.h0 - dims.h1 + dims.h2 == riemann_roch(psi), f"Riemann-Roch fails on fan {fan}"

        doubled = gamma_curve(theta).doubled
        rays, coeffs = psi.fan.rays, divisor_coeffs(psi)
        boxes = (table.bounds, fraction_search_box(psi.fan, coeffs, 0))
        xmin, ymin = min(b[0] for b in boxes), min(b[1] for b in boxes)
        xmax, ymax = max(b[2] for b in boxes), max(b[3] for b in boxes)
        for x in range(xmin, xmax + 1):
            for y in range(ymin, ymax + 1):
                w = ray_cast(doubled, (x, y))
                v = sign_value(rays, coeffs, (x, y))
                assert w == v, f"winding {w} but sign value {v} at {(x, y)} on fan {fan}"

        for point, w in table.entries.items():
            got = winding_via_T_auto(theta, point)
            assert got == w, f"ray oracle gives {got} at {point}, table has {w}"
        for point in zero_probe_points(table.bounds):
            if point not in table.entries:
                assert winding_via_T_auto(theta, point) == 0
        if table.entries:
            nonempty += 1
            entries += len(table.entries)
    return nonempty, entries
