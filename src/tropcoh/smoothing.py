"""Floating point checks of the mollifier smoothing claims.

The smoothing of f is F(x) = int f(x - y) mu(y) dy / Z with the bump
mu(y) = exp(1 / (|y|^2 - eps^2)) on |y| < eps.  One Gauss-Legendre rule, the
fan rule, computes it for the piecewise linear form FanPL of a semi-integral
support, at many points in one batch.  Nodes lie in polar coordinates about
the fan vertex, so every cone is integrated on its own and no node sees a
kink.  With m_j and M_j the bump's mass and first moment over cone j and
Z = sum_j m_j,

    F = sum_j <theta_j, M_j> / Z,  grad F = sum_j theta_j m_j / Z,

and the Hessian is a sum over the rays of the line mass of the bump on each
(order x rays nodes a point), since grad f jumps only across the rays.
Only mollify_eval reads the M_j, so only it has them summed.  The nodes are
built a group at a time into three buffers that each call allocates once.
_wall_weights gives gradients and the weight of each ray in the Hessian,
which check_hessian_definiteness uses; fan_derivatives builds the Hessians
from them, and grad, hessian and mollify_eval are its one-point views.
"quadrature order too low" means that Z differs from the exact mass of the
bump, the one-dimensional polar integral in closed form, by more than 1e-6
(relative).  The check bounds the total mass Z, not how it splits between
the cones.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .lattice import InternalError, LatticeError, SizeLimitError
from .spheres import SemiIntegralSupport, gamma_curve, is_strictly_convex


class FanPL:
    """Piecewise linear form of a semi-integral support on its fan."""

    def __init__(self, theta: SemiIntegralSupport):
        self.theta = theta
        rays = theta.fan.rays
        angles = np.unwrap([math.atan2(u[1], u[0]) for u in rays])
        if not np.all(np.diff(angles) > 0):
            raise InternalError("fan rays are not in counterclockwise order")
        self._angles = angles
        self._parts = np.array([[x / 2, y / 2] for x, y in theta.doubled])
        self._units = np.array(rays, dtype=float) / np.hypot(*np.array(rays, dtype=float).T)[:, None]
        # unit normals n_j = rot90(u_j) / |u_j|, and kappa_j with theta_j - theta_{j-1} = kappa_j n_j
        n = np.stack([-self._units[:, 1], self._units[:, 0]], axis=1)
        self._kinks = np.einsum("ja,ja->j", self._parts - np.roll(self._parts, 1, axis=0), n)
        # n_j n_j^T as (xx, xy, yy), and det(n_i, n_j)^2 for i < j
        self._outer = n[:, [0, 0, 1]] * n[:, [0, 1, 1]]
        self._cross = np.triu(np.square(np.outer(n[:, 0], n[:, 1]) - np.outer(n[:, 1], n[:, 0])), 1)


# The fan rule takes 2 order^2 nodes per cone that meets a point's disk: every
# cone at the `samples` Hessian points near the fan vertex, one or two at the
# about samples / 4 gradient points out along the rays.  Each factor has its
# limit, and so does their product, the node count samples x rays x 2 order^2:
# on p2 (3 rays) 10^8 nodes allow 104 samples at order 400, about 1.5 s once
# the rule is built, on a shared 2-vCPU host, and 10_000 samples at order 24
# take 34.6 million.
MAX_QUADRATURE_ORDER = 400
MAX_SAMPLES = 10_000
MAX_QUADRATURE_NODES = 10**8
# The gradient's roundoff grows with |2 theta|: on the convex and concave fixture
# sets scaled by 10^k + 1, max_gamma_distance first passes 1e-5 at |2 theta| = 3e11.
MAX_DOUBLED_THETA = 10**10


@dataclass(frozen=True)
class MollifierParams:
    epsilon: float
    quadrature_order: int = 24

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise LatticeError(f"mollifier radius must be positive and finite, got {self.epsilon}")
        if self.epsilon * self.epsilon * -math.log(sys.float_info.min) < 1:
            # the bump's peak exp(-1/eps^2) is subnormal: every mass is roundoff
            raise LatticeError(f"mollifier radius {self.epsilon} is too small: the bump underflows")
        if not 1 / (self.epsilon * self.epsilon) >= sys.float_info.min:
            # the bump's mass is a function of 1/eps^2, which is subnormal or 0 here
            raise LatticeError(f"mollifier radius {self.epsilon} is too large: 1/eps^2 underflows")
        if self.quadrature_order < 1:
            raise LatticeError(f"quadrature order must be positive, got {self.quadrature_order}")
        if self.quadrature_order > MAX_QUADRATURE_ORDER:
            raise SizeLimitError(
                f"quadrature order {self.quadrature_order} is above the limit of {MAX_QUADRATURE_ORDER}"
            )


@lru_cache(maxsize=None)
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


# Most quadrature nodes built at once: whole rows of 2 * order nodes, one per
# polar angle or ray, whatever the number of points.
_GROUP_NODES = 1 << 15


def _bump_mass(eps: float) -> float:
    """Z = 2 pi int_0^eps mu(r) r dr = pi Gamma(-1, 1/eps^2), in closed form.

    With v = 1 / (eps^2 - r^2), Z = pi int_x^inf e^-v v^-2 dv for x = 1/eps^2:
    an upper incomplete gamma function.  For x >= 1 its continued fraction
    (modified Lentz, as in Numerical Recipes' gcf); below, e^-x / x - E1(x)
    with the power series of the exponential integral E1.
    """
    x = 1 / (eps * eps)
    if x < 1:
        term, series = 1.0, 0.0
        for k in range(1, 40):
            term *= -x / k
            series += term / k
        return math.pi * (math.exp(-x) / x + np.euler_gamma + math.log(x) + series)
    b = x + 2
    c, d = 1e300, 1 / b
    h = d
    for i in range(1, 200):
        an = -i * (i + 1)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return math.pi * math.exp(-x) / x * h


def _chords(x: np.ndarray, e: np.ndarray, eps: float):
    """Ends s0 < s1 of {s : |x - s e| < eps} for unit vectors e, NaN-free (s0 = s1 when empty)."""
    b = x[:, 0] * e[:, 0] + x[:, 1] * e[:, 1]
    root = np.sqrt(np.maximum(b * b - (x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]) + eps * eps, 0.0))
    return b - root, b + root


def _bump_on_chords(s0, s1, lo, gx, gw, work):
    """Nodes s and W * mu on [lo, s1] of chords with ends s0 <= lo, s1, as (chords, 2 * order).

    The rule is split at the chord's midpoint, the point nearest the disk's
    centre, so each half runs from the top of the bump to the rim, as a radial
    integral does.  |x - s e|^2 - eps^2 = (s - s0)(s - s1), which stays
    accurate next to the rim.  s and W * mu are views into the first two of
    the three node buffers in work, which the caller allocates once per call.
    """
    mid = np.maximum((s0 + s1) / 2, lo)
    ends = np.stack([lo, mid, mid, s1], axis=1).reshape(-1, 2, 2)
    half = (ends[:, :, 1] - ends[:, :, 0]) / 2
    s, w, tmp = (a[: half.size * len(gx)].reshape(*half.shape, len(gx)) for a in work)
    np.multiply(half[..., None], gx, out=s)
    s += (ends[:, :, 0] + half)[..., None]
    np.subtract(s, s0[:, None, None], out=w)
    w *= np.subtract(s, s1[:, None, None], out=tmp)
    np.minimum(w, -1e-300, out=w)
    np.reciprocal(w, out=w)
    np.exp(w, out=w)
    w *= gw
    w *= half[..., None]
    return s.reshape(len(s0), -1), w.reshape(len(s0), -1)


def _cone_masses(f: FanPL, x: np.ndarray, eps: float, order: int, moment=None) -> np.ndarray:
    """Bump mass m_j over each cone, as (points, rays); M_j is added into moment, (2, points * rays), if given.

    m_j(x) = int over cone j of mu(x - z) dz and M_j(x) = int over cone j of
    z mu(x - z) dz.  Polar coordinates z = rho (cos phi, sin phi) about the
    fan vertex: phi runs over the cone, clipped to the arc that sees the disk
    when |x| >= eps, and rho over the chord of the disk (_bump_on_chords), so
    m_j and M_j sum W * mu * rho and W * mu * rho^2 e over the part rho >= 0.
    Groups of rows, one per phi node, hold at most _GROUP_NODES nodes.
    """
    gx, gw = _gl(order)
    a0 = f._angles[0]
    bounds = np.append(f._angles, a0 + 2 * math.pi)
    r = len(f._angles)
    rad = np.hypot(x[:, 0], x[:, 1])
    # the window of directions that meet the disk, starting in [a0, a0 + 2 pi)
    half = np.where(rad < eps, math.pi, np.arcsin(eps / np.maximum(rad, eps)))
    lo = np.where(rad < eps, a0, a0 + np.mod(np.arctan2(x[:, 1], x[:, 0]) - half - a0, 2 * math.pi))
    cone_lo = np.concatenate([bounds[:-1], bounds[:-1] + 2 * math.pi])
    cone_hi = np.concatenate([bounds[1:], bounds[1:] + 2 * math.pi])
    a = np.maximum(lo[:, None], cone_lo)
    b = np.minimum((lo + 2 * half)[:, None], cone_hi)
    pt, k = np.nonzero(b > a)
    a, b, slot = a[pt, k], b[pt, k], pt * r + k % r

    mass = np.zeros(len(x) * r)
    step = max(1, _GROUP_NODES // (2 * order))
    work = np.empty((3, min(step, len(pt) * order) * 2 * order))
    for start in range(0, len(pt) * order, step):
        i, g = np.divmod(np.arange(start, min(start + step, len(pt) * order)), order)
        phi = (a[i] + b[i]) / 2 + (b[i] - a[i]) / 2 * gx[g]
        e = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        s0, s1 = _chords(x[pt[i]], e, eps)
        s, w = _bump_on_chords(s0, s1, np.maximum(s0, 0.0), gx, gw, work)
        weight = (b[i] - a[i]) / 2 * gw[g]
        first = np.einsum("ij,ij->i", s, w)
        first *= weight
        mass += np.bincount(slot[i], weights=first, minlength=len(mass))
        if moment is not None:
            w *= s
            second = np.einsum("ij,ij->i", s, w)
            second *= weight
            for c in (0, 1):
                moment[c] += np.bincount(slot[i], weights=second * e[:, c], minlength=len(mass))
    return mass.reshape(-1, r)


def _ray_masses(f: FanPL, x: np.ndarray, eps: float, order: int) -> np.ndarray:
    """L_j(x) = int of mu(x - s u_j) ds over s >= 0 for every point and unit ray, as (points, rays)."""
    gx, gw = _gl(order)
    r = len(f._units)
    e = np.tile(f._units, (len(x), 1))
    s0, s1 = _chords(np.repeat(x, r, axis=0), e, eps)
    lo = np.maximum(s0, 0.0)
    (hit,) = np.nonzero(s1 > lo)
    out = np.zeros(len(e))
    step = max(1, _GROUP_NODES // (2 * order))
    work = np.empty((3, min(step, len(hit)) * 2 * order))
    for start in range(0, len(hit), step):
        h = hit[start : start + step]
        out[h] = np.sum(_bump_on_chords(s0[h], s1[h], lo[h], gx, gw, work)[1], axis=1)
    return out.reshape(-1, r)


def _checked_masses(f: FanPL, p: MollifierParams, x: np.ndarray, moment=None):
    """_cone_masses at the points x (adding M_j into moment, if given), and Z = sum_j m_j, after the mass check."""
    eps = float(p.epsilon)
    mass = _cone_masses(f, x, eps, int(p.quadrature_order), moment)
    den = np.sum(mass, axis=1)
    z = _bump_mass(eps)
    off = np.abs(den - z)
    if not np.all(off <= 1e-6 * z):
        k = int(np.argmax(off))
        raise LatticeError(
            f"quadrature order too low: at order {p.quadrature_order}, the mass Z at"
            f" ({x[k, 0]:.6g}, {x[k, 1]:.6g}) is off the exact bump mass by {off[k] / z:.3g}"
            " relative, above the 1e-06 bound"
        )
    return mass, den


def _wall_weights(f: FanPL, p: MollifierParams, points) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (n, 2) of the smoothed fan support at n points, and the weights c (n, rays).

    grad f is theta_j on cone j, so grad F = sum_j theta_j m_j / Z with m_j
    the bump mass of cone j (_cone_masses) and Z = sum_j m_j.  Across ray j
    the gradient of f jumps by kappa_j n_j, so

        Hess F = sum_j c_j n_j n_j^T,  c_j = kappa_j L_j / Z

    with L_j the line mass of the bump on ray j (_ray_masses).  Each L_j is
    divided by Z before any product: at eps = 0.05, Z^2 underflows.
    "quadrature order too low" when Z at some point is off the exact mass
    (_bump_mass) by more than 1e-6, relative.
    """
    x = np.asarray(points, dtype=float).reshape(-1, 2)
    mass, den = _checked_masses(f, p, x)
    lines = _ray_masses(f, x, float(p.epsilon), int(p.quadrature_order))
    return mass @ f._parts / den[:, None], lines / den[:, None] * f._kinks


def fan_derivatives(f: FanPL, p: MollifierParams, points) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (n, 2) and Hessians (n, 2, 2), exactly symmetric, of the smoothed fan support at n points."""
    grads, c = _wall_weights(f, p, points)
    return grads, (c @ f._outer)[:, [0, 1, 1, 2]].reshape(-1, 2, 2)


def grad(f: FanPL, p: MollifierParams, x) -> tuple[float, float]:
    return tuple(fan_derivatives(f, p, [x])[0][0].tolist())


def hessian(f: FanPL, p: MollifierParams, x):
    return tuple(map(tuple, fan_derivatives(f, p, [x])[1][0].tolist()))


def mollify_eval(f: FanPL, p: MollifierParams, x) -> float:
    """F(x) = sum_j <theta_j, M_j> / Z, with M_j the bump's first moment over cone j."""
    moment = np.zeros((2, len(f._angles)))
    den = _checked_masses(f, p, np.asarray(x, dtype=float).reshape(1, 2), moment)[1]
    return float(np.einsum("ja,ja->", moment.T, f._parts) / den[0])


def _point_to_segment(q, a, b) -> float:
    qx, qy, ax, ay = float(q[0]), float(q[1]), float(a[0]), float(a[1])
    ex, ey = float(b[0]) - ax, float(b[1]) - ay
    denom = ex * ex + ey * ey
    t = 0.0 if denom == 0 else min(max(((qx - ax) * ex + (qy - ay) * ey) / denom, 0.0), 1.0)
    return math.hypot(qx - (ax + t * ex), qy - (ay + t * ey))


def _dist_outside_hull(q, hull) -> float:
    """0 inside; distance to the hull boundary outside."""
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if all((b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) >= 0 for a, b in edges):
        return 0.0
    return min(_point_to_segment(q, a, b) for a, b in edges)


@dataclass(frozen=True)
class HessianSample:
    point: tuple[float, float]
    eigenvalues: tuple[float, float]


@dataclass(frozen=True)
class GradientSample:
    point: tuple[float, float]
    gradient: tuple[float, float]
    gamma_distance: Optional[float]  # None near the fan vertex, where no edge of gamma applies
    hull_excess: float


@dataclass(frozen=True)
class DefinitenessReport:
    convexity: str
    hessian_samples: int
    hessian_failures: int
    min_abs_eigenvalue: float
    gamma_samples: int
    max_gamma_distance: float
    grad_samples: int
    max_hull_excess: float
    # the Hessian sample nearest to the wrong sign, and the gradient sample
    # farthest from its edge of gamma or from the hull of gamma
    worst_hessian: HessianSample
    worst_gradient: GradientSample

    @property
    def gradients_ok(self) -> bool:
        return self.max_gamma_distance <= 1e-5 and self.max_hull_excess <= 1e-5

    @property
    def ok(self) -> bool:
        return self.hessian_failures == 0 and self.gradients_ok


def _sample_points(rays, eps: float, samples: int) -> tuple[list, list]:
    """The check's points, and for each the index of its ray (None near the fan vertex)."""
    # near the fan vertex every direction bends: definite Hessian zone
    golden = math.pi * (3 - math.sqrt(5))
    points = []
    for i in range(samples):
        rad = (eps / 2) * math.sqrt((i + 0.5) / samples)
        ang = i * golden
        points.append((rad * math.cos(ang), rad * math.sin(ang)))
    on_ray = [None] * samples

    # far out along each ray only one edge bends: gradient walks the segment
    r = len(rays)
    per_ray = max(3, samples // (4 * r))
    for j, u in enumerate(rays):
        norm = math.hypot(*u)
        angs = []
        for k in (-1, 1):
            v = rays[(j + k) % r]
            cosang = (u[0] * v[0] + u[1] * v[1]) / (norm * math.hypot(*v))
            angs.append(math.acos(max(-1.0, min(1.0, cosang))))
        base = 1.5 * eps / math.sin(min(angs)) + eps
        for i in range(per_ray):
            rad = base * (1 + i)
            points.append((rad * u[0] / norm, rad * u[1] / norm))
            on_ray.append(j)
    return points, on_ray


def check_hessian_definiteness(
    theta: SemiIntegralSupport, p: MollifierParams, samples: int
) -> DefinitenessReport:
    if samples < 1:
        raise LatticeError(f"Hessian sample count must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise SizeLimitError(f"{samples} Hessian samples is above the limit of {MAX_SAMPLES}")
    rays, order = len(theta.fan.rays), p.quadrature_order
    nodes = samples * rays * 2 * order * order
    if nodes > MAX_QUADRATURE_NODES:
        raise SizeLimitError(
            f"{samples} Hessian samples on {rays} rays at quadrature order {order} take about "
            f"{nodes} quadrature nodes, above the limit of {MAX_QUADRATURE_NODES}"
        )
    big = max(abs(c) for t in theta.doubled for c in t)
    if big > MAX_DOUBLED_THETA:
        raise SizeLimitError(f"a doubled theta coordinate is {big}, above the limit of {MAX_DOUBLED_THETA}")
    convexity = is_strictly_convex(theta)
    if convexity == "neither":
        raise LatticeError("convexity required")
    sign = 1.0 if convexity == "convex" else -1.0
    gamma = [(x / 2, y / 2) for x, y in gamma_curve(theta).doubled]
    points, on_ray = _sample_points(theta.fan.rays, float(p.epsilon), samples)
    f = FanPL(theta)
    grads, c = _wall_weights(f, p, points)

    # The eigenvalue farther from 0 is tr/2 + sign(tr) disc, free of cancellation.  The
    # nearer one is det over it, with det = sum_{i<j} c_i c_j det(n_i, n_j)^2 (Cauchy-Binet):
    # where every c_j has one sign, so has every term, and tr/2 - disc would cancel.
    c = c[:samples]
    dets = np.einsum("pi,ij,pj->p", c, f._cross, c)
    hessians = []
    for b, (xx, xy, yy), det in zip(points, (c @ f._outer).tolist(), dets.tolist()):
        tr, disc = xx + yy, math.hypot((xx - yy) / 2, xy)
        far = tr / 2 + math.copysign(disc, tr)
        hessians.append(HessianSample(b, tuple(sorted((det / far if far else 0.0, far)))))
    checked = [
        GradientSample(
            b,
            g,
            None if j is None else _point_to_segment(g, gamma[j - 1], gamma[j]),
            _dist_outside_hull(g, gamma),
        )
        for b, g, j in zip(points, map(tuple, grads.tolist()), on_ray)
    ]
    gammas = [s.gamma_distance for s in checked if s.gamma_distance is not None]
    return DefinitenessReport(
        convexity,
        samples,
        sum(not all(sign * e > 0 for e in s.eigenvalues) for s in hessians),
        min(abs(e) for s in hessians for e in s.eigenvalues),
        len(gammas),
        max(gammas),
        len(checked),
        max(s.hull_excess for s in checked),
        min(hessians, key=lambda s: min(sign * e for e in s.eigenvalues)),
        max(checked, key=lambda s: max(s.gamma_distance or 0.0, s.hull_excess)),
    )
