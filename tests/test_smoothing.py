"""Numerical checks of the mollified piecewise linear functions.

These tests accept small floating point tolerances; everything upstream of
this module is exact.
"""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import oracles
import tropcoh.smoothing as smoothing
from gen_cases import random_definite_theta, random_theta
from oracles import (
    fan_pl_value,
    fan_walls,
    polar_disk_mass,
    split_rule,
    split_smoothing,
    split_wall_weights,
    spot_check_continuity,
    vertex_gradient,
    wall_form_hessian,
)
from tropcoh.fan import make_fan
from tropcoh.lattice import LatticeError, SizeLimitError, dot, lex_positive, rot90, vsub
from tropcoh.smoothing import (
    MAX_QUADRATURE_NODES,
    MAX_QUADRATURE_ORDER,
    MAX_SAMPLES,
    FanPL,
    MollifierParams,
    check_hessian_definiteness,
    fan_derivatives,
    grad,
    hessian,
    mollify_eval,
)
from tropcoh.spheres import SemiIntegralSupport, theta_from_twisting, twisting


@pytest.fixture(scope="module")
def p2_theta(p2_region):
    return theta_from_twisting(twisting(p2_region, (3, 3, 3)))


def test_quadrature_order_must_be_positive(p2_theta):
    with pytest.raises(LatticeError, match="order must be positive"):
        mollify_eval(FanPL(p2_theta), MollifierParams(0.25, quadrature_order=0), (0.0, 0.0))


def test_affine_functions_mollify_to_themselves():
    # one part on every cone of the square fan: f(x) = (x + y) / 2, with rays crossing the disk at the vertex
    f = FanPL(SemiIntegralSupport(make_fan(((1, 0), (0, 1), (-1, 0), (0, -1))), ((1, 1),) * 4))
    p = MollifierParams(0.3)
    for x in [(0.0, 0.0), (0.05, -0.1), (1.7, -2.3), (-0.4, 0.9)]:
        assert abs(mollify_eval(f, p, x) - (x[0] + x[1]) / 2) < 1e-8


def test_mollified_value_far_from_all_walls(definite_thetas):
    """On the bisector of each cone, farther than eps from both of its rays, F = f."""
    p = MollifierParams(0.25)
    for theta in definite_thetas:
        f = FanPL(theta)
        ends = np.append(f._angles, f._angles[0] + 2 * math.pi)
        for lo, hi in zip(ends[:-1], ends[1:]):
            rad = 2 * p.epsilon / math.sin(min((hi - lo) / 2, math.pi / 2))
            x = (rad * math.cos((lo + hi) / 2), rad * math.sin((lo + hi) / 2))
            raw = float(fan_pl_value(f, np.array([x]))[0])
            assert abs(mollify_eval(f, p, x) - raw) <= 1e-8 * max(1.0, abs(raw)), (theta.fan.rays, x)


def test_mollified_fan_value_far_from_walls(p2_theta):
    f = FanPL(p2_theta)
    p = MollifierParams(0.2)
    x = (1.0, 0.4)
    raw = float(fan_pl_value(f, np.array([x]))[0])
    assert abs(mollify_eval(f, p, x) - raw) < 1e-8


def test_gradient_deep_inside_a_cone_is_the_linear_part(p2_theta):
    f = FanPL(p2_theta)
    p = MollifierParams(0.2)
    g = grad(f, p, (2.0, 1.0))
    want = p2_theta.thetas[1]
    assert abs(g[0] - float(want[0])) < 1e-7
    assert abs(g[1] - float(want[1])) < 1e-7


def test_gradient_on_a_wall_is_the_mean_of_the_sides(p2_theta):
    f = FanPL(p2_theta)
    p = MollifierParams(0.2)
    g = grad(f, p, (1.5, 0.0))
    t0, t1 = p2_theta.thetas[0], p2_theta.thetas[1]
    want = ((float(t0[0]) + float(t1[0])) / 2, (float(t0[1]) + float(t1[1])) / 2)
    assert abs(g[0] - want[0]) < 1e-5
    assert abs(g[1] - want[1]) < 1e-5


def test_bend_is_constant_along_the_wall(p2_theta):
    """Gradient of the smoothing at wall points does not drift along the wall."""
    f = FanPL(p2_theta)
    p = MollifierParams(0.2)
    grads = [grad(f, p, (t, 0.0)) for t in (1.0, 1.4, 1.8, 2.2)]
    for g in grads[1:]:
        assert abs(g[0] - grads[0][0]) < 1e-6
        assert abs(g[1] - grads[0][1]) < 1e-6


def test_gradient_jump_across_an_interior_edge(p2_theta):
    # the ray along (1, 0) runs along the interior edge from (0, 0) to (1, 0);
    # beyond the disk on either side of it the gradient is the part of that
    # cone, and the jump is (ell / 2) rot90(u) = (0, 3 / 2)
    f = FanPL(p2_theta)
    p = MollifierParams(0.2)
    g_plus, g_minus = grad(f, p, (1.5, 0.3)), grad(f, p, (1.5, -0.3))
    assert np.allclose(g_plus, [float(c) for c in p2_theta.thetas[1]], rtol=0, atol=1e-7)
    assert np.allclose(g_minus, [float(c) for c in p2_theta.thetas[0]], rtol=0, atol=1e-7)
    assert abs((g_plus[1] - g_minus[1]) - 1.5) < 1e-6


def test_low_order_quadrature_is_rejected(p2_theta):
    # near the fan vertex every cone meets the disk, which a two-node rule cannot resolve
    p = MollifierParams(0.25, quadrature_order=2)
    for view in (grad, hessian, mollify_eval):
        with pytest.raises(LatticeError, match="quadrature order too low: at order 2, the mass Z at "):
            view(FanPL(p2_theta), p, (0.05, 0.0))


def test_continuity_across_walls(p2_theta):
    assert spot_check_continuity(FanPL(p2_theta)) < 1e-7


def test_definiteness_convex(p2_theta):
    rep = check_hessian_definiteness(p2_theta, MollifierParams(0.2), samples=8)
    assert rep.convexity == "convex"
    assert rep.ok
    assert rep.hessian_failures == 0
    assert rep.min_abs_eigenvalue > 0
    assert rep.max_gamma_distance <= 1e-5
    assert rep.max_hull_excess <= 1e-5


def test_definiteness_concave(p2_region):
    theta = theta_from_twisting(twisting(p2_region, (-3, -3, -3)))
    rep = check_hessian_definiteness(theta, MollifierParams(0.2), samples=8)
    assert rep.convexity == "concave"
    assert rep.ok


def test_definiteness_requires_one_sided_twists(blowup_region):
    theta = theta_from_twisting(twisting(blowup_region, (-14, 5, -14, -9)))
    with pytest.raises(LatticeError, match="convexity required"):
        check_hessian_definiteness(theta, MollifierParams(0.2), samples=4)


@pytest.mark.parametrize("eps", [0.2, 0.25, 0.5])
def test_hessian_matches_the_wall_form_pointwise(p2_theta, eps):
    f = FanPL(p2_theta)
    points = [
        (0.01, 0.02),
        (eps / 5, eps / 7),
        (-0.05, 0.03),
        (0.1, -0.04),
        (1.0, 0.05),  # one ray crosses the disk
        (0.3, 0.3),  # no ray crosses the disk
    ]
    for x in points:
        got = np.array(hessian(f, MollifierParams(eps), x))
        want = wall_form_hessian(p2_theta, eps, x)
        assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want))), x
        assert got[0, 1] == got[1, 0]


def test_quadrature_defect_witness_is_convex_and_ok():
    # a larger convex twisting on which the finite-difference Hessian
    # raised "quadrature order too low"
    fan = make_fan(((-1, 1), (0, -1), (1, 0), (1, 1), (0, 1)))
    theta = theta_from_twisting(twisting(fan, (26, 51, 17, 9, 16)))
    rep = check_hessian_definiteness(theta, MollifierParams(0.25), samples=24)
    assert rep.convexity == "convex"
    assert rep.ok


@pytest.mark.parametrize("samples", [0, -5])
def test_definiteness_rejects_non_positive_sample_counts(p2_theta, samples):
    with pytest.raises(LatticeError, match="sample count must be positive"):
        check_hessian_definiteness(p2_theta, MollifierParams(0.2), samples=samples)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_mollifier_radius_must_be_positive(eps):
    with pytest.raises(LatticeError, match="radius must be positive"):
        MollifierParams(eps)


@pytest.mark.parametrize(
    "x",
    [
        (0.01, 0.02),  # near the vertex: every wall crosses the disk
        (1.5, 0.0),  # on a wall
        (1.0, 0.05),  # one wall crosses the disk
        (0.3, 0.3),  # no wall crosses the disk
        (0.1, 0.5),  # the wall x = 0 leaves the disk: empty pieces at the rim
    ],
    ids=[f"fan-x{k}" for k in range(5)],
)
def test_piecewise_quadrature_matches_the_pointwise_rule(p2_region, x):
    """The split rule with grad f once per piece gives what f at every node gives, up to roundoff."""
    f = FanPL(theta_from_twisting(twisting(p2_region, (5, 5, 5))))
    p = MollifierParams(0.25)
    (v, g, h), (v0, g0, h0) = split_smoothing(f, p, x), split_smoothing(f, p, x, pointwise=True)
    for got, want in zip((v, *g, *h[0], *h[1]), (v0, *g0, *h0[0], *h0[1])):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, got, want)


def test_a_wall_crossing_clipped_at_the_rim_gives_an_empty_piece(p2_region):
    f = FanPL(theta_from_twisting(twisting(p2_region, (5, 5, 5))))
    eps, x = 0.25, (0.1, 0.5)
    lines = [(a, b, a * x[0] + b * x[1] + c) for a, b, c in fan_walls(f)]
    groups = split_rule([w for w in lines if abs(w[2]) <= eps + 1e-12], eps, 24)
    mids = np.concatenate([m for m, _, _, _ in groups])
    rim = np.sqrt(np.maximum(eps * eps - mids[:, 0, 1] ** 2, 0.0))
    # a piece from a clipped crossing to the rim has its midpoint on the rim
    assert np.any(np.abs(mids[:, :, 0]) == rim[:, None])


def test_one_gradient_call_per_derivative(p2_region, monkeypatch):
    """The split rule reads grad f once per piece; pointwise, at every node."""
    f = FanPL(theta_from_twisting(twisting(p2_region, (5, 5, 5))))
    p = MollifierParams(0.25)
    rows = []
    real = oracles.fan_pl_gradient

    def counted(f, pts):
        rows.append(len(pts))
        return real(f, pts)

    monkeypatch.setattr(oracles, "fan_pl_gradient", counted)
    split_smoothing(f, p, (0.01, 0.02))
    # 6 strips of 24 rows, each row cut into 3 pieces, in one group
    assert rows == [432]
    rows.clear()
    split_smoothing(f, p, (0.01, 0.02), pointwise=True)
    # grad f, then f, which reads the gradient too
    assert rows == [1728 * 6] * 2


def test_quadrature_order_limit():
    assert MollifierParams(0.25, MAX_QUADRATURE_ORDER).quadrature_order == MAX_QUADRATURE_ORDER
    with pytest.raises(SizeLimitError, match=f"above the limit of {MAX_QUADRATURE_ORDER}"):
        MollifierParams(0.25, MAX_QUADRATURE_ORDER + 1)


def test_sample_limit_is_checked_before_any_quadrature(p2_theta, monkeypatch):
    def refuse(*args):
        raise AssertionError("quadrature started")

    monkeypatch.setattr(smoothing, "_wall_weights", refuse)
    with pytest.raises(SizeLimitError, match=f"above the limit of {MAX_SAMPLES}"):
        check_hessian_definiteness(p2_theta, MollifierParams(0.2), samples=MAX_SAMPLES + 1)


def test_node_limit_is_checked_before_any_quadrature(p2_theta, monkeypatch):
    """samples x rays x 2 order^2 is bounded, and each factor's own limit still fits on p2."""

    def refuse(*args):
        raise AssertionError("quadrature started")

    monkeypatch.setattr(smoothing, "_wall_weights", refuse)
    for samples, order in ((24, MAX_QUADRATURE_ORDER), (MAX_SAMPLES, 24), (104, MAX_QUADRATURE_ORDER)):
        with pytest.raises(AssertionError, match="quadrature started"):
            check_hessian_definiteness(p2_theta, MollifierParams(0.25, order), samples)
    message = (
        "105 Hessian samples on 3 rays at quadrature order 400 take about 100800000 quadrature nodes, "
        f"above the limit of {MAX_QUADRATURE_NODES}"
    )
    with pytest.raises(SizeLimitError, match=f"^{message}$"):
        check_hessian_definiteness(p2_theta, MollifierParams(0.25, MAX_QUADRATURE_ORDER), 105)


def test_report_names_the_worst_samples(p2_theta):
    rep = check_hessian_definiteness(p2_theta, MollifierParams(0.2), samples=8)
    h, g = rep.worst_hessian, rep.worst_gradient
    assert min(h.eigenvalues) == rep.min_abs_eigenvalue
    assert g.hull_excess <= rep.max_hull_excess
    assert max(g.gamma_distance or 0.0, g.hull_excess) == max(rep.max_gamma_distance, rep.max_hull_excess)


# ---------------------------------------------------------------- the fan rule


@pytest.fixture(scope="module")
def definite_thetas():
    """Seeded convex and concave supports on fans with 3, 9, 7, 5, 4 and 6 rays."""
    rng = random.Random(2)
    return [random_definite_theta(rng, sign) for sign in (1, -1) * 3]


def _scale(want) -> float:
    return max(1.0, float(np.max(np.abs(want))))


def test_fan_rule_matches_the_oracles_pointwise(definite_thetas):
    eps = 0.25
    p = MollifierParams(eps)
    for theta in definite_thetas:
        f = FanPL(theta)
        points = [(0.0, 0.0)] + smoothing._sample_points(theta.fan.rays, eps, 8)[0]
        g, h = fan_derivatives(f, p, points)
        want = vertex_gradient(theta)
        assert np.max(np.abs(g[0] - want)) <= 1e-12 * _scale(want), theta.fan.rays
        for x, hx in zip(points, h):
            want = wall_form_hessian(theta, eps, x)
            assert np.max(np.abs(hx - want)) <= 1e-9 * _scale(want), (theta.fan.rays, x)
            assert hx[0, 1] == hx[1, 0]


@pytest.mark.parametrize("eps, tol", [(0.2, 1e-9), (0.25, 1e-9), (0.5, 1e-9), (1, 1e-7)])
def test_one_point_views_match_the_split_rule(definite_thetas, eps, tol):
    """grad, hessian and mollify_eval at order 24 against the split rule at order 300,
    on the first vertex sample and the first sample out along a ray.

    Errors are relative to the largest gradient or Hessian entry.  At eps = 1
    the order-24 rule's own error reaches about 3e-8; at the smaller radii it
    stays below 1e-10.
    """
    p, reference = MollifierParams(eps), MollifierParams(eps, 300)
    for theta in definite_thetas:
        f = FanPL(theta)
        points, on_ray = smoothing._sample_points(theta.fan.rays, eps, 8)
        for x in (points[0], points[on_ray.index(0)]):
            v0, g0, h0 = split_smoothing(f, reference, x)
            want = np.concatenate([[v0], g0, np.ravel(h0)])
            got = np.concatenate([[mollify_eval(f, p, x)], grad(f, p, x), np.ravel(hessian(f, p, x))])
            assert np.max(np.abs(got - want)) <= tol * _scale(want[1:]), (theta.fan.rays, x)


def _ray_distances(rays, x) -> list[float]:
    """Distance from x to each closed ray {s u : s >= 0}."""
    out = []
    for u in rays:
        norm = math.hypot(*u)
        along = (x[0] * u[0] + x[1] * u[1]) / norm
        out.append(math.hypot(*x) if along <= 0 else abs(x[0] * u[1] - x[1] * u[0]) / norm)
    return out


def test_hessian_certificate(definite_thetas):
    """Where one wall meets the disk the Hessian has rank one; where non-parallel
    walls whose kinks share a sign meet it, both eigenvalues have that sign.

    A wall is a ray with a nonzero kink.  A ray counts as meeting the disk
    when it passes within 0.7 eps of the centre and as missing it beyond eps;
    points in between are skipped, since a ray that only grazes the disk adds
    a mass below roundoff.
    """
    eps = 0.25
    thetas = definite_thetas + [random_theta(random.Random(seed)) for seed in range(3)]
    grid = [(i * eps / 3, k * eps / 3) for i in range(-9, 10) for k in range(-9, 10)]
    rank_one = definite = 0
    for theta in thetas:
        rays = theta.fan.rays
        kinks = [dot(vsub(theta.thetas[j], theta.thetas[j - 1]), rot90(u)) for j, u in enumerate(rays)]
        _, hess = fan_derivatives(FanPL(theta), MollifierParams(eps), grid)
        for x, h in zip(grid, hess):
            dist = _ray_distances(rays, x)
            if any(0.7 * eps <= d < eps for d in dist):
                continue
            meet = [j for j, d in enumerate(dist) if d < 0.7 * eps and kinks[j] != 0]
            if not meet:
                assert np.all(h == 0), x
                continue
            lines = {lex_positive(rays[j]) for j in meet}
            low, high = sorted(np.linalg.eigvalsh(h), key=abs)
            if len(lines) == 1:
                rank_one += 1
                assert abs(low) <= 1e-12 * abs(high), (rays, x)
            elif len({kinks[j] > 0 for j in meet}) == 1:
                definite += 1
                sign = 1 if kinks[meet[0]] > 0 else -1
                assert sign * low > 0 and sign * high > 0, (rays, x)
    assert rank_one > 100 and definite > 100


EPS_SWEEP = (0.05, 0.1, 0.15, 0.25, 0.5, 1, 1.5, 2, 4)


@pytest.fixture(scope="module")
def sweep_reference(definite_thetas):
    """Points of a 4-sample check on a 5-ray fan, and the split rule at order 300 there, per radius."""
    theta = definite_thetas[3]
    f = FanPL(theta)
    out = {}
    for eps in EPS_SWEEP:
        points = smoothing._sample_points(theta.fan.rays, eps, 4)[0][::2]
        out[eps] = points, [split_smoothing(f, MollifierParams(eps, 300), x)[1:] for x in points]
    return f, out


def test_the_mass_check_is_sound(sweep_reference):
    """Wherever the fan rule does not raise, it is within 1e-6 of the split rule at order 300."""
    f, reference = sweep_reference
    passed = raised = 0
    for order in (8, 24, 64):
        for eps in EPS_SWEEP:
            p = MollifierParams(eps, order)
            for x, (g0, h0) in zip(*reference[eps]):
                try:
                    g, h = fan_derivatives(f, p, [x])
                except LatticeError as exc:
                    assert str(exc).startswith(f"quadrature order too low: at order {order}, the mass Z at ")
                    raised += 1
                    continue
                passed += 1
                want = np.concatenate([g0, np.ravel(h0)])
                got = np.concatenate([g[0], h[0].ravel()])
                assert np.max(np.abs(got - want)) <= 1e-6 * _scale(want), (order, eps, x)
    assert passed > 0 and raised > 0


def _outcome(theta, p, samples):
    try:
        rep = check_hessian_definiteness(theta, p, samples)
    except LatticeError as exc:
        # the phrase and the order; the fan rule goes on to name a point, the split rule does not
        return str(exc).split(",")[0], None
    fields = (rep.convexity, rep.hessian_samples, rep.hessian_failures, rep.gamma_samples, rep.grad_samples, rep.ok)
    return fields, (rep.min_abs_eigenvalue, rep.max_gamma_distance, rep.max_hull_excess)


@pytest.mark.parametrize("eps", [0.2, 0.25, 0.5])
def test_check_reports_what_the_split_rule_reported(definite_thetas, monkeypatch, eps):
    """Every non-float field, and each raise, as with the oracles' weights at the same
    order (split_wall_weights); the floats within 1e-8 of the oracles at order 300."""
    runs = [(theta, 24) for theta in definite_thetas[:4]] + [(theta, 200) for theta in definite_thetas[:2]]
    fan_rule = [_outcome(theta, MollifierParams(eps), samples) for theta, samples in runs]
    fan_floats = _outcome(definite_thetas[0], MollifierParams(eps), 8)
    monkeypatch.setattr(smoothing, "_wall_weights", split_wall_weights)
    for (theta, samples), (fields, _) in zip(runs, fan_rule):
        assert _outcome(theta, MollifierParams(eps), samples)[0] == fields, (theta.fan.rays, samples)
    fields, floats = _outcome(definite_thetas[0], MollifierParams(eps, 300), 8)
    assert fields == fan_floats[0]
    assert np.max(np.abs(np.array(floats) - fan_floats[1])) <= 1e-8


@pytest.mark.parametrize("eps", [0.04, 0.05, 0.1, 0.25, 0.5, 0.99, 1.0, 1.01, 2, 4, 10])
def test_bump_mass_is_the_polar_integral(eps):
    assert abs(smoothing._bump_mass(eps) - polar_disk_mass(eps)) <= 1e-12 * polar_disk_mass(eps)


def test_fan_rule_groups_hold_at_most_group_nodes(p2_theta, monkeypatch):
    sizes = []
    real = smoothing._bump_on_chords

    def counted(s0, s1, lo, gx, gw, work):
        sizes.append(len(s0) * 2 * len(gx))
        return real(s0, s1, lo, gx, gw, work)

    monkeypatch.setattr(smoothing, "_bump_on_chords", counted)
    fan_derivatives(FanPL(p2_theta), MollifierParams(0.25, MAX_QUADRATURE_ORDER), [(0.01, 0.02), (0.0, 2.0)])
    assert len(sizes) > 2 and max(sizes) <= smoothing._GROUP_NODES


@pytest.mark.parametrize("order", [24, MAX_QUADRATURE_ORDER])
def test_the_check_holds_a_few_groups_of_nodes(p2_theta, order):
    """The traced peak of a 24-sample check stays below five node buffers of _GROUP_NODES floats."""
    p = MollifierParams(0.25, order)
    check_hessian_definiteness(p2_theta, p, 24)  # the rule's nodes and weights, cached per order
    tracemalloc.start()
    try:
        check_hessian_definiteness(p2_theta, p, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * smoothing._GROUP_NODES * 8


# Sample counts that make the cone rule run several groups, the last one partial
# except at order 400, where a group is 40 of the 400 rows of a cone.
_GROUPED_SAMPLES = {8: 300, 24: 50, 64: 12, 400: 1}


@pytest.fixture(scope="module")
def grouped_thetas(definite_thetas, p2_theta, blowup_theta):
    return [*definite_thetas, p2_theta, blowup_theta]


def _grouped_points(rays, eps, order):
    """Sample points, the fan vertex, a point on a ray inside the disk and one far outside it."""
    u = np.array(rays[0], dtype=float) / math.hypot(*rays[0])
    extra = [(0.0, 0.0), tuple(eps / 3 * u), (3.0, -2.0)]
    return np.array(smoothing._sample_points(rays, eps, _GROUPED_SAMPLES[order])[0] + extra)


@pytest.mark.parametrize("order", sorted(_GROUPED_SAMPLES))
def test_fan_rule_is_bit_identical_to_the_grouped_oracle(grouped_thetas, monkeypatch, order):
    """Masses alone, masses with moments, line masses and mollify_eval, float for float."""
    eps = 0.25
    p = MollifierParams(eps, order)
    sizes = []
    real = smoothing._bump_on_chords

    def counted(s0, s1, lo, gx, gw, work):
        sizes.append(len(s0))
        return real(s0, s1, lo, gx, gw, work)

    for theta in grouped_thetas:
        f, x = FanPL(theta), _grouped_points(theta.fan.rays, eps, order)
        want_mass, want_moment = oracles.grouped_cone_masses(f, x, eps, order)
        with monkeypatch.context() as m:
            m.setattr(smoothing, "_bump_on_chords", counted)
            sizes.clear()
            mass = smoothing._cone_masses(f, x, eps, order)
        assert len(sizes) > 2 and (sizes[-1] < sizes[0]) == (order != 400), (theta.fan.rays, sizes)
        assert np.array_equal(mass, want_mass)
        moment = np.zeros((2, mass.size))
        assert np.array_equal(smoothing._cone_masses(f, x, eps, order, moment), want_mass)
        assert np.array_equal(moment.T.reshape(-1, len(theta.fan.rays), 2), want_moment)
        assert np.array_equal(smoothing._ray_masses(f, x, eps, order), oracles.grouped_ray_masses(f, x, eps, order))
        for k in (0, 1, len(x) - 1):
            one_mass, one_moment = oracles.grouped_cone_masses(f, x[k : k + 1], eps, order)
            den, z = np.sum(one_mass, axis=1)[0], smoothing._bump_mass(eps)
            if abs(den - z) <= 1e-6 * z:
                assert mollify_eval(f, p, x[k]) == float(np.einsum("ja,ja->", one_moment[0], f._parts) / den)
            else:
                with pytest.raises(LatticeError, match="quadrature order too low"):
                    mollify_eval(f, p, x[k])


def _outcome_or_report(theta, p, samples):
    try:
        return check_hessian_definiteness(theta, p, samples)
    except LatticeError as exc:
        return str(exc)


@pytest.mark.parametrize("order", sorted(_GROUPED_SAMPLES))
def test_check_report_is_the_grouped_oracles(definite_thetas, p2_theta, monkeypatch, order):
    def grouped(f, x, eps, order, moment=None):
        mass, first = oracles.grouped_cone_masses(f, x, eps, order)
        if moment is not None:
            moment += first.reshape(-1, 2).T
        return mass

    p = MollifierParams(0.25, order)
    samples = min(24, _GROUPED_SAMPLES[order])
    for theta in [p2_theta, *definite_thetas]:
        got = _outcome_or_report(theta, p, samples)
        with monkeypatch.context() as m:
            m.setattr(smoothing, "_cone_masses", grouped)
            m.setattr(smoothing, "_ray_masses", oracles.grouped_ray_masses)
            assert _outcome_or_report(theta, p, samples) == got, theta.fan.rays


@pytest.mark.parametrize("eps", [0.0375, 1e-200])
def test_a_radius_whose_bump_underflows_is_rejected(eps):
    with pytest.raises(LatticeError, match=f"mollifier radius {eps} is too small: the bump underflows"):
        MollifierParams(eps)
    assert MollifierParams(0.0376).epsilon == 0.0376


@pytest.mark.parametrize("eps", [7e153, 1e160, 1e300])
def test_a_radius_whose_inverse_square_underflows_is_rejected(eps):
    with pytest.raises(LatticeError, match=re.escape(f"mollifier radius {eps} is too large: 1/eps^2 underflows")):
        MollifierParams(eps)
    assert MollifierParams(6e153).epsilon == 6e153
