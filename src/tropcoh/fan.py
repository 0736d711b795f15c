"""Complete rank-two fans and smooth self-intersection numbers."""

from __future__ import annotations

import functools
from typing import NamedTuple

from .lattice import InternalError, LatticeError, Vec, det2, is_primitive, record, rot90
from .polytope import Subdivision, checked


@record
class Fan(NamedTuple):
    """Rays of a complete simplicial fan, counterclockwise from the lex smallest."""

    rays: tuple[Vec, ...]

    def _check(self, *_) -> None:
        r = len(self.rays)
        if r < 3:
            raise LatticeError("a complete fan needs at least three rays")
        for u in self.rays:
            if not is_primitive(u):
                raise LatticeError(f"ray {u} is not primitive")
        for j in range(r):
            if det2(self.rays[j], self.rays[(j + 1) % r]) <= 0:
                raise LatticeError("rays do not span a complete fan")
        # each step turns by less than a half turn, so the rays go round once
        # exactly when they cross from the lower to the upper half plane once
        turns = sum(not _upper(self.rays[j - 1]) and _upper(self.rays[j]) for j in range(r))
        if turns != 1:
            raise LatticeError(f"rays go round the origin {turns} times, not once")
        if min(self.rays) != self.rays[0]:
            raise LatticeError("rays must start at the lex smallest")


def _upper(v: Vec) -> bool:
    """Whether v has angle in [0, pi)."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _ccw_cmp(a: Vec, b: Vec) -> int:
    if _upper(a) != _upper(b):
        return _upper(b) - _upper(a)
    return -det2(a, b)


def make_fan(rays) -> Fan:
    given = [tuple(u) for u in rays]
    rs = list(dict.fromkeys(given))
    if len(rs) != len(given):
        raise LatticeError("duplicate ray")
    rs.sort(key=functools.cmp_to_key(_ccw_cmp))
    k = rs.index(min(rs))
    return Fan(tuple(rs[k:] + rs[:k]))


def fan_at_vertex(sub: Subdivision, v: Vec) -> Fan:
    v = tuple(v)
    index = checked(sub)
    if v not in index.interior_vertices:
        raise LatticeError(f"{v} is not an interior vertex")
    # the rays walk v's link counterclockwise from the lex-least, which is v + the lex-least ray
    link = index.link(v)
    walk = [min(link)]
    for _ in link:
        walk.append(link.get(walk[-1]))
    if walk.pop() != walk[0]:
        raise InternalError(f"the link of {v} does not close")
    return Fan(tuple((x - v[0], y - v[1]) for x, y in walk))


def balance(rays, values) -> Vec:
    """Sum of values_j * rot90(u_j); zero when the values close up around the fan."""
    sx = sy = 0
    for u, c in zip(rays, values, strict=True):
        x, y = rot90(u)
        sx += c * x
        sy += c * y
    return (sx, sy)


def is_smooth(fan: Fan) -> bool:
    r = len(fan.rays)
    return all(det2(fan.rays[j], fan.rays[(j + 1) % r]) == 1 for j in range(r))


def self_intersections(fan: Fan) -> tuple[int, ...]:
    if not is_smooth(fan):
        raise LatticeError("fan not smooth")
    r = len(fan.rays)
    return tuple(-det2(fan.rays[j - 1], fan.rays[(j + 1) % r]) for j in range(r))
