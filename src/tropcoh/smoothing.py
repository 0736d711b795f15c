"""Floating point checks of the mollifier smoothing claims.

The smoothing of f is F(x) = int f(x - y) mu(y) dy / Z with the bump
mu(y) = exp(1 / (|y|^2 - eps^2)) on |y| < eps.  Two Gauss-Legendre rules
compute it.

The split rule (mollify_eval, derivatives) serves any piecewise linear f.
It splits the disk at every declared kink line of f into pieces: strips in y2
cut at every horizontal wall, rim crossing and wall intersection, and each of
a strip's rows cut in y1 where it crosses the other walls.  No piece meets a
wall, so f is affine on each and fixed-order Gauss-Legendre sees only smooth
integrands; Z comes from the same nodes, so constants reproduce up to
roundoff.  Gradient and Hessian are closed forms that differentiate only the
bump, never the kinks of f, and take grad f once per piece P:

    grad F = sum_P M_P grad f_P / Z,  d_i d_j F = sum_P (D_j)_P (d_i f)_P / Z,

where M_P and D_P sum W mu and W grad mu over the nodes of P.  Values take f
at every node: f is affine on a piece, not constant.  Here "quadrature order
too low" means that the bump mass on the split pieces differs from the same
rule's mass on the unsplit disk by more than 1e-6 (relative): the pieces are
too thin for the order.

The fan rule (fan_derivatives, which check_hessian_definiteness uses) serves
FanPL at many points in one batch.  grad F = sum_j theta_j m_j / Z from the
bump mass m_j of each cone, in polar coordinates about the fan vertex, and
the Hessian is a sum over the rays of the line mass of the bump on each
(order x rays nodes a point).  Here "quadrature order too low" means that
sum_j m_j differs from the exact mass of the bump, the one-dimensional polar
integral in closed form, by more than 1e-6 (relative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .lattice import LatticeError, lex_positive
from .polytope import Subdivision, convex_hull, edges
from .spheres import SemiIntegralSupport, gamma_curve
from .winding import SizeLimitError, is_strictly_convex

Wall = tuple[float, float, float]  # a*x + b*y + c = 0, (a, b) normalized


def _normalize_wall(a: float, b: float, c: float) -> Wall:
    n = math.hypot(a, b)
    if n == 0:
        raise LatticeError("degenerate wall line")
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a / n, b / n, c / n)


@dataclass(frozen=True)
class AffinePL:
    """f(x) = <slope, x> + offset; no kinks anywhere."""

    slope: tuple[float, float]
    offset: float = 0.0

    def value(self, pts: np.ndarray) -> np.ndarray:
        return pts[:, 0] * self.slope[0] + pts[:, 1] * self.slope[1] + self.offset

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.slope, dtype=float), (len(pts), 2))

    def walls(self) -> tuple[Wall, ...]:
        return ()


class FanPL:
    """Piecewise linear form of a semi-integral support on its fan."""

    def __init__(self, theta: SemiIntegralSupport):
        self.theta = theta
        rays = theta.fan.rays
        angles = np.unwrap([math.atan2(u[1], u[0]) for u in rays])
        if not np.all(np.diff(angles) > 0):
            raise LatticeError("fan rays are not in counterclockwise order")
        self._angles = angles
        self._parts = np.array([[x / 2, y / 2] for x, y in theta.doubled])
        self._units = np.array(rays, dtype=float) / np.hypot(*np.array(rays, dtype=float).T)[:, None]
        keys = dict.fromkeys(lex_positive(u) for u in rays)
        self._walls = tuple(_normalize_wall(-k[1], k[0], 0.0) for k in keys)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        """Linear part of the cone containing each point."""
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        a0 = self._angles[0]
        ang = a0 + np.mod(ang - a0, 2 * math.pi)
        idx = np.clip(np.searchsorted(self._angles, ang, side="right") - 1, 0, len(self._angles) - 1)
        return self._parts[idx]

    def value(self, pts: np.ndarray) -> np.ndarray:
        parts = self.gradient(pts)
        return parts[:, 0] * pts[:, 0] + parts[:, 1] * pts[:, 1]

    def walls(self) -> tuple[Wall, ...]:
        return self._walls


class SubdivisionPL:
    """Integral support function extended beyond the polygon by projection."""

    def __init__(self, sub: Subdivision, values: Sequence[int]):
        self.sub = sub
        self.values = tuple(values)
        pts = np.array(sub.points, dtype=float)
        tri = np.array(sub.triangles, dtype=int).reshape(-1, 3)
        self._p0 = pts[tri[:, 0]]
        self._e = np.stack([pts[tri[:, 1]] - self._p0, pts[tri[:, 2]] - self._p0], axis=1)
        self._v = np.array(values, dtype=float)[tri]
        # slope g of each triangle: <g, e_k> = v_k - v_0
        self._slope = np.linalg.solve(self._e, (self._v[:, 1:] - self._v[:, :1])[:, :, None])[:, :, 0]
        self._hull = np.array(convex_hull(sub.points), dtype=float)
        ws = []
        for e in edges(sub):
            a, b = e.a, e.b
            d = (b[0] - a[0], b[1] - a[1])
            ws.append(_normalize_wall(-d[1], d[0], d[1] * a[0] - d[0] * a[1]))
            if e.is_boundary:
                # outside the polygon the projection lands on this edge between the
                # lines <d, x> = <d, end>: beyond them lies the wedge of a hull
                # vertex or the part of the slab over the next boundary edge
                for end in (a, b):
                    ws.append(_normalize_wall(d[0], d[1], -(d[0] * end[0] + d[1] * end[1])))
        self._walls = tuple(dict.fromkeys(ws))

    def _project(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest points of the polygon and the Jacobian of that projection.

        The Jacobian is I inside the hull, e e^T / |e|^2 on the slab of a hull
        edge e, and 0 in the wedge of a hull vertex.
        """
        a = self._hull
        e = np.roll(a, -1, axis=0) - a
        rel = pts[:, None, :] - a
        inside = np.all(e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0] >= -1e-12, axis=1)
        t = np.sum(rel * e, axis=2) / np.sum(e * e, axis=1)
        proj = a + np.clip(t, 0.0, 1.0)[..., None] * e
        rows = np.arange(len(pts))
        k = np.argmin(np.sum((pts[:, None, :] - proj) ** 2, axis=2), axis=1)
        ek = e[k]
        slab = (t[rows, k] > 0) & (t[rows, k] < 1)
        jac = (slab / np.sum(ek * ek, axis=1))[:, None, None] * ek[:, :, None] * ek[:, None, :]
        q = np.where(inside[:, None], pts, proj[rows, k])
        return q, np.where(inside[:, None, None], np.eye(2), jac)

    def _locate(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First triangle containing each point, and its barycentric (s, t) there."""
        r = q[:, None, :] - self._p0
        e1, e2 = self._e[:, 0], self._e[:, 1]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        s = (r[..., 0] * e2[:, 1] - r[..., 1] * e2[:, 0]) / det
        t = (e1[:, 0] * r[..., 1] - e1[:, 1] * r[..., 0]) / det
        hit = (s >= -1e-9) & (t >= -1e-9) & (s + t <= 1 + 1e-9)
        if not np.all(np.any(hit, axis=1)):
            raise LatticeError("projected point escaped the triangulation")
        k = np.argmax(hit, axis=1)
        rows = np.arange(len(q))
        return k, s[rows, k], t[rows, k]

    def value(self, pts: np.ndarray) -> np.ndarray:
        q, _ = self._project(np.asarray(pts, dtype=float))
        k, s, t = self._locate(q)
        v = self._v[k]
        return v[:, 0] + s * (v[:, 1] - v[:, 0]) + t * (v[:, 2] - v[:, 0])

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        """Triangle slope at the projected point, times the projection's Jacobian."""
        q, jac = self._project(np.asarray(pts, dtype=float))
        return np.einsum("nij,nj->ni", jac, self._slope[self._locate(q)[0]])

    def walls(self) -> tuple[Wall, ...]:
        return self._walls


# A split-rule derivative takes about order^2 nodes per strip.  The fan rule
# takes 2 order^2 nodes per cone that meets a point's disk: every cone at the
# `samples` Hessian points near the fan vertex, one or two at the about
# samples / 4 gradient points out along the rays.
MAX_QUADRATURE_ORDER = 400
MAX_SAMPLES = 10_000
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


def epsilon_auto(sub: Subdivision) -> float:
    """Half the smallest feature distance of the subdivision."""
    pts = [np.array(p, dtype=float) for p in sub.points]
    dmin = min(
        float(np.hypot(*(p - q)))
        for i, p in enumerate(pts)
        for q in pts[i + 1 :]
    )
    for e in edges(sub):
        for q, p in zip(sub.points, pts):
            if q not in (e.a, e.b):
                dmin = min(dmin, _point_to_segment(p, e.a, e.b))
    return dmin / 2


@lru_cache(maxsize=None)
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


# Most quadrature nodes built at once.  Split rule: a whole sample at order 24
# (at most about 23k nodes) is one group, while at order 300 each strip is a
# group of its own.  Fan rule: whole rows of 2 * order nodes, one per polar
# angle or ray, whatever the number of points.
_GROUP_NODES = 1 << 15


def _rule(lines, eps: float, order: int):
    """Gauss-Legendre rule on the disk |y| < eps split at lines a*y1 + b*y2 = d.

    Yields groups of whole strips as arrays over (rows, pieces, order): piece
    midpoints (..., 2), nodes (y1, y2), W * mu and W * grad mu as (y1, y2) parts.
    """
    gx, gw = _gl(order)
    cuts = set()
    for a, b, d in lines:
        if abs(a) < 1e-14:
            cuts.add(d / b)
        else:
            # crossings with the disk rim
            disc = eps * eps * (a * a + b * b) - d * d
            if disc > 0:
                root = a * math.sqrt(disc)
                base = b * d
                s2 = a * a + b * b
                cuts.add((base + root) / s2)
                cuts.add((base - root) / s2)
    for i, (a1, b1, d1) in enumerate(lines):
        for a2, b2, d2 in lines[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-14:
                continue
            cuts.add((a1 * d2 - a2 * d1) / det)
    ts = sorted(t for t in cuts if -eps + 1e-13 < t < eps - 1e-13)
    bounds = [-eps]
    for t in ts:
        if t - bounds[-1] > 1e-13:
            bounds.append(t)
    bounds.append(eps)
    los, his = np.array(bounds[:-1]), np.array(bounds[1:])

    a, b, d = np.array([w for w in lines if abs(w[0]) >= 1e-14]).reshape(-1, 3).T
    step = max(1, _GROUP_NODES // (order * order * (len(a) + 1)))
    for k in range(0, len(los), step):
        lo, hi = los[k : k + step], his[k : k + step]
        T = ((lo + hi)[:, None] / 2 + (hi - lo)[:, None] / 2 * gx).ravel()
        WT = ((hi - lo)[:, None] / 2 * gw).ravel()
        S = np.sqrt(np.maximum(eps * eps - T * T, 0.0))[:, None]
        crossings = np.clip((d - b * T[:, None]) / a, -S, S)
        edges_y1 = np.sort(np.concatenate([-S, crossings, S], axis=1), axis=1)
        mid1 = (edges_y1[:, :-1] + edges_y1[:, 1:]) / 2
        half1 = (edges_y1[:, 1:] - edges_y1[:, :-1]) / 2
        Y1 = mid1[..., None] + half1[..., None] * gx
        Y2 = np.broadcast_to(T[:, None, None], Y1.shape)
        r2 = Y1 * Y1 + (T * T)[:, None, None]
        ok = r2 < eps * eps * (1 - 1e-15)
        inv = 1.0 / np.where(ok, r2 - eps * eps, -1.0)
        wmu = np.where(ok, (WT[:, None] * half1)[..., None] * gw * np.exp(inv), 0.0)
        dmu = -2.0 * wmu * inv * inv
        yield np.stack([mid1, Y2[..., 0]], axis=-1), (Y1, Y2), wmu, (dmu * Y1, dmu * Y2)


@lru_cache(maxsize=None)
def _disk_mass(eps: float, order: int) -> float:
    return sum(float(np.sum(wmu)) for _, _, wmu, _ in _rule([], eps, order))


def _split_rule(f, p: MollifierParams, x):
    """x as an array, and the groups of the rule split at the walls of f near x."""
    eps = float(p.epsilon)
    x = np.array([float(x[0]), float(x[1])])
    # wall lines in the y frame: a*y1 + b*y2 = d
    lines = [(a, b, a * x[0] + b * x[1] + c) for a, b, c in f.walls()]
    return x, _rule([w for w in lines if abs(w[2]) <= eps + 1e-12], eps, int(p.quadrature_order))


def _check_mass(den: float, p: MollifierParams) -> None:
    mass = _disk_mass(float(p.epsilon), int(p.quadrature_order))
    if abs(den - mass) > 1e-6 * mass:
        raise LatticeError("quadrature order too low")


def mollify_eval(f, p: MollifierParams, x) -> float:
    x, groups = _split_rule(f, p, x)
    num = den = 0.0
    for _, (y1, y2), wmu, _ in groups:
        num += float(np.sum(wmu.ravel() * f.value(x - np.stack([y1.ravel(), y2.ravel()], axis=1))))
        den += float(np.sum(wmu))
    _check_mass(den, p)
    return num / den


def derivatives(f, p: MollifierParams, x):
    """Gradient (gx, gy) and Hessian ((h11, h12), (h12, h22)) of the smoothing at x."""
    x, groups = _split_rule(f, p, x)
    mids, masses, dmasses = zip(
        *((m, w.sum(axis=2), np.stack([dw1.sum(axis=2), dw2.sum(axis=2)], axis=-1)) for m, _, w, (dw1, dw2) in groups)
    )
    mass = np.concatenate(masses).ravel()
    den = float(np.sum(mass))
    _check_mass(den, p)
    # no piece meets a wall, so grad f takes one value on each
    g = f.gradient(x - np.concatenate(mids).reshape(-1, 2))
    m = np.concatenate(dmasses).reshape(-1, 2).T @ g / den
    return tuple((mass @ g / den).tolist()), tuple(map(tuple, ((m + m.T) / 2).tolist()))


def grad(f, p: MollifierParams, x) -> tuple[float, float]:
    return derivatives(f, p, x)[0]


def hessian(f, p: MollifierParams, x):
    return derivatives(f, p, x)[1]


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


def _bump_on_chords(s0, s1, lo, gx, gw):
    """Nodes s and W * mu on [lo, s1] of chords with ends s0 <= lo, s1, as (chords, 2 * order).

    The rule is split at the chord's midpoint, the point nearest the disk's
    centre, so each half runs from the top of the bump to the rim, as a radial
    integral does.  |x - s e|^2 - eps^2 = (s - s0)(s - s1), which stays
    accurate next to the rim.
    """
    mid = np.maximum((s0 + s1) / 2, lo)
    ends = np.stack([lo, mid, mid, s1], axis=1).reshape(-1, 2, 2)
    half = (ends[:, :, 1] - ends[:, :, 0]) / 2
    s = (ends[:, :, 0] + half)[..., None] + half[..., None] * gx
    # in place, so a group holds at most three arrays of its nodes at once
    w = s - s0[:, None, None]
    w *= s - s1[:, None, None]
    np.minimum(w, -1e-300, out=w)
    np.reciprocal(w, out=w)
    np.exp(w, out=w)
    w *= gw
    w *= half[..., None]
    return s.reshape(len(s0), -1), w.reshape(len(s0), -1)


def _cone_masses(f: FanPL, x: np.ndarray, eps: float, order: int) -> np.ndarray:
    """Bump mass m_j(x) = int over cone j of mu(x - z) dz for every point and cone, as (points, rays).

    Polar coordinates z = rho (cos phi, sin phi) about the fan vertex: phi runs
    over the cone, clipped to the arc that sees the disk when |x| >= eps, and
    rho over the chord of the disk (_bump_on_chords).  Groups of rows, one
    per phi node, hold at most _GROUP_NODES nodes.
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
    for start in range(0, len(pt) * order, step):
        i, g = np.divmod(np.arange(start, min(start + step, len(pt) * order)), order)
        phi = (a[i] + b[i]) / 2 + (b[i] - a[i]) / 2 * gx[g]
        s0, s1 = _chords(x[pt[i]], np.stack([np.cos(phi), np.sin(phi)], axis=1), eps)
        # sum of W * mu * rho over each chord; the group's node arrays die here
        rows = np.einsum("ij,ij->i", *_bump_on_chords(s0, s1, np.maximum(s0, 0.0), gx, gw))
        rows *= (b[i] - a[i]) / 2 * gw[g]
        mass += np.bincount(slot[i], weights=rows, minlength=len(mass))
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
    for start in range(0, len(hit), step):
        h = hit[start : start + step]
        out[h] = np.sum(_bump_on_chords(s0[h], s1[h], lo[h], gx, gw)[1], axis=1)
    return out.reshape(-1, r)


def fan_derivatives(f: FanPL, p: MollifierParams, points) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (n, 2) and Hessians (n, 2, 2) of the smoothed fan support at n points.

    grad f is theta_j on cone j, so grad F = sum_j theta_j m_j / Z with m_j
    the bump mass of cone j (_cone_masses) and Z = sum_j m_j.  Across ray j
    the gradient of f jumps by theta_j - theta_{j-1} in the direction
    n_j = rot90(u_j), so

        Hess F = sum_j (theta_j - theta_{j-1}) n_j^T L_j / Z

    with L_j the line mass of the bump on ray j (_ray_masses), symmetrised.
    "quadrature order too low" when Z at some point is off the exact mass
    (_bump_mass) by more than 1e-6, relative.
    """
    eps, order = float(p.epsilon), int(p.quadrature_order)
    x = np.asarray(points, dtype=float).reshape(-1, 2)
    z = _bump_mass(eps)
    mass = _cone_masses(f, x, eps, order)
    den = np.sum(mass, axis=1)
    if not np.all(np.abs(den - z) <= 1e-6 * z):
        raise LatticeError("quadrature order too low")
    normals = np.stack([-f._units[:, 1], f._units[:, 0]], axis=1)
    jumps = f._parts - np.roll(f._parts, 1, axis=0)
    h = np.einsum("pj,ja,jb->pab", _ray_masses(f, x, eps, order), jumps, normals) / den[:, None, None]
    return mass @ f._parts / den[:, None], (h + h.transpose(0, 2, 1)) / 2


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
    def ok(self) -> bool:
        return (
            self.hessian_failures == 0
            and self.max_gamma_distance <= 1e-5
            and self.max_hull_excess <= 1e-5
        )


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
    big = max(abs(c) for t in theta.doubled for c in t)
    if big > MAX_DOUBLED_THETA:
        raise SizeLimitError(f"a doubled theta coordinate is {big}, above the limit of {MAX_DOUBLED_THETA}")
    convexity = is_strictly_convex(theta)
    if convexity == "neither":
        raise LatticeError("convexity required")
    sign = 1.0 if convexity == "convex" else -1.0
    gamma = [(x / 2, y / 2) for x, y in gamma_curve(theta).doubled]
    points, on_ray = _sample_points(theta.fan.rays, float(p.epsilon), samples)
    grads, hess = fan_derivatives(FanPL(theta), p, points)

    hessians = []
    for b, ((h11, h12), (_, h22)) in zip(points, hess[:samples].tolist()):
        tr, det = h11 + h22, h11 * h22 - h12 * h12
        disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
        hessians.append(HessianSample(b, (tr / 2 - disc, tr / 2 + disc)))
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
