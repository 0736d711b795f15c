"""End-to-end acceptance run.

Each test prints one pass/fail line (visible with pytest -s) and asserts the
same condition, so the suite both reports and gates.
"""

import math
import random

import numpy as np

from oracles import convex_intersection_count, fan_pl_value, serre_dual_psi
from tropcoh.bundles import canonical_KC, phi_map
from tropcoh.cohomology import (
    cohomology_dims,
    psi_from_ray_values,
    psi_from_theta,
    restriction_degrees,
    verify_winding_theorem,
)
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.ext_chains import (
    SphericalPair,
    build_a2d_example,
    ext_total_dims,
    verify_a2d_configuration,
)
from tropcoh.fan import make_fan
from tropcoh.lattice import lex_positive
from tropcoh.smoothing import FanPL, MollifierParams, check_hessian_definiteness, grad, mollify_eval
from tropcoh.spheres import theta_from_twisting, twisting
from tropcoh.tropical import region_at, tropical_curve
from tropcoh.winding import h_even_odd, winding_table

WORKED_ELL = (-14, 5, -14, -9)


def _report(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {number} failed: {text}"


def _blowup_theta():
    curve = tropical_curve(blowup_p2())
    region = region_at(curve, (1, 1))
    return region, theta_from_twisting(twisting(region, WORKED_ELL))


def test_criterion_1_p2_curve_geometry():
    curve = tropical_curve(local_p2())
    vertices_ok = set(curve.vertices) == {(-1, -1), (2, -1), (-1, 2)}
    tangents = {lex_positive(e.normal) for e in curve.bounded}
    tangents_ok = tangents == {
        lex_positive(t) for t in ((1, 0), (-1, 1), (0, -1))
    }
    _report(1, vertices_ok and tangents_ok, "local plane curve vertices and tangents")


def test_criterion_2_picard_ranks():
    ok = len(phi_map(tropical_curve(local_p2())).kernel_vectors()) == 1
    for d in (2, 3, 4):
        ok = ok and len(phi_map(tropical_curve(a2d_subdivision(d))).kernel_vectors()) == 3 * d
    _report(2, ok, "kernel ranks of the balancing map")


def test_criterion_3_p2_twist_family():
    region = region_at(tropical_curve(local_p2()), (0, 0))
    ok = True
    for k in range(-3, 4):
        theta = theta_from_twisting(twisting(region, (2 * k + 1,) * 3))
        want = abs(k * (k + 1) // 2)
        ok = ok and convex_intersection_count(theta) == want
        ok = ok and h_even_odd(theta) == (want, 0)
    _report(3, ok, "odd twist family on the local plane")


def test_criterion_4_worked_example():
    region, theta = _blowup_theta()
    table = winding_table(theta)
    plus = sorted(p for p, w in table.entries.items() if w == 1)
    minus = sorted(p for p, w in table.entries.items() if w == -1)
    ok = len(plus) == 10 and len(minus) == 3
    ok = ok and set(table.entries.values()) <= {1, -1}

    kc = canonical_KC(region)
    kc_edge = tuple(kc[key] for key in region.edge_keys)
    ok = ok and kc_edge == (-2, -1, -2, -3)

    half_diff = tuple((k - l) // 2 for k, l in zip(kc_edge, WORKED_ELL))
    psi = psi_from_theta(theta)
    ok = ok and half_diff == (6, -3, 6, 3)
    ok = ok and restriction_degrees(psi) == half_diff
    ok = ok and cohomology_dims(psi).as_tuple() == (10, 3, 0)
    ok = ok and verify_winding_theorem(theta).ok
    _report(4, ok, "worked blowup example with twists (-14, 5, -14, -9)")


def test_criterion_5_random_oracle_agreement(random_cross_check):
    nonempty, _ = random_cross_check
    _report(5, nonempty > 400, "500 random supports against both oracles")


def test_criterion_6_ladder_families():
    ok = True
    for d in range(1, 6):
        example = build_a2d_example(d)
        ok = ok and verify_a2d_configuration(example).ok
        for j in range(1, d - 1):
            ok = ok and -example.kappa[j - 1][3] + example.kappa[j][0] == j
    mutated = build_a2d_example(3)
    kappa = [list(row) for row in mutated.kappa]
    kappa[0][2] = 2
    import dataclasses

    bad = dataclasses.replace(mutated, kappa=tuple(tuple(r) for r in kappa))
    ok = ok and not verify_a2d_configuration(bad).ok
    _report(6, ok, "ladder strings for d = 1..5 and mutation detection")


def test_criterion_7_pair_dimension_rules():
    ok = True
    for k in range(-5, 6):
        total = sum(ext_total_dims(SphericalPair("curve_in_surface", k=k)))
        ok = ok and (total == 1) == (k in (0, 1))
        for m in range(-5, 6):
            t2 = sum(ext_total_dims(SphericalPair("surfaces_along_curve", k=k, m=m)))
            ok = ok and (t2 == 0) == (k + m == -1)
    _report(7, ok, "pair dimension totals over the parameter window")


def test_criterion_8_smoothing_claims():
    ok = True

    region = region_at(tropical_curve(local_p2()), (0, 0))
    theta = theta_from_twisting(twisting(region, (3, 3, 3)))
    f_fan = FanPL(theta)
    p_fan = MollifierParams(0.2)
    raw = float(fan_pl_value(f_fan, np.array([(1.0, 0.4)]))[0])
    ok = ok and abs(mollify_eval(f_fan, p_fan, (1.0, 0.4)) - raw) <= 1e-8

    wall_grads = [grad(f_fan, p_fan, (t, 0.0)) for t in (1.0, 1.4, 1.8, 2.2)]
    drift = max(
        math.hypot(g[0] - wall_grads[0][0], g[1] - wall_grads[0][1])
        for g in wall_grads[1:]
    )
    ok = ok and drift <= 1e-6

    rep = check_hessian_definiteness(theta, p_fan, samples=200)
    ok = ok and rep.hessian_failures == 0
    ok = ok and rep.max_gamma_distance <= 1e-5
    ok = ok and rep.max_hull_excess <= 1e-5
    _report(8, ok, "mollifier accuracy, bend constancy, and convexity samples")


def test_criterion_9_serre_duality():
    rng = random.Random(20260823)
    fans = [
        make_fan([(1, 0), (0, 1), (-1, -1)]),
        make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        make_fan([(1, 0), (0, 1), (-1, 2), (0, -1)]),
    ]
    ok = True
    for _ in range(100):
        fan = rng.choice(fans)
        psi = psi_from_ray_values(fan, [rng.randrange(-6, 7) for _ in fan.rays])
        dims = cohomology_dims(psi).as_tuple()
        dual = cohomology_dims(serre_dual_psi(psi)).as_tuple()
        ok = ok and dual == dims[::-1]
    _report(9, ok, "dimension reversal under the canonical involution")
