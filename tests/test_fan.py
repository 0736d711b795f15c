import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hex_grid
from gen_cases import random_smooth_fan
from oracles import index_of, sorted_fan_at_vertex
from tropcoh import fan as fan_module
from tropcoh.bundles import canonical_KC
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.fan import (
    Fan,
    fan_at_vertex,
    is_smooth,
    make_fan,
    self_intersections,
)
from tropcoh.lattice import LatticeError, det2
from tropcoh.polytope import checked
from tropcoh.tropical import tropical_curve


def test_make_fan_sorts_ccw_from_lex_smallest():
    fan = make_fan([(0, 1), (1, 0), (-1, -1)])
    assert fan.rays == ((-1, -1), (1, 0), (0, 1))


def test_make_fan_accepts_any_input_order():
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(5):
        random.Random(0).shuffle(rays)
        assert make_fan(rays).rays == ((-1, 0), (0, -1), (1, 0), (0, 1))


def test_make_fan_rejects_duplicates():
    with pytest.raises(LatticeError, match="duplicate ray"):
        make_fan([(1, 0), (0, 1), (1, 0), (-1, -1)])


def test_fan_needs_three_rays():
    with pytest.raises(LatticeError, match="at least three rays"):
        make_fan([(1, 0), (-1, 0)])


def test_fan_rejects_imprimitive_ray():
    with pytest.raises(LatticeError, match="not primitive"):
        make_fan([(2, 0), (0, 1), (-1, -1)])


def test_fan_must_be_complete():
    with pytest.raises(LatticeError, match="complete fan"):
        make_fan([(1, 0), (1, 1), (0, 1)])


def test_fan_rejects_rays_that_go_round_twice():
    """p2's rays listed twice turn counterclockwise at every step, but twice round."""
    with pytest.raises(LatticeError, match="rays go round the origin 2 times, not once"):
        Fan(((-1, -1), (1, 0), (0, 1)) * 2)
    with pytest.raises(LatticeError, match="3 times"):
        Fan(((-1, 0), (0, -1), (1, 0), (0, 1)) * 3)


def test_fan_constructor_enforces_start():
    with pytest.raises(LatticeError, match="lex smallest"):
        Fan(((1, 0), (0, 1), (-1, -1)))


def test_index_of():
    fan = make_fan([(1, 0), (0, 1), (-1, -1)])
    assert index_of(fan, (1, 0)) == 1
    with pytest.raises(LatticeError, match="not a ray"):
        index_of(fan, (5, 5))


def test_fan_at_vertex_p2(p2_sub):
    fan = fan_at_vertex(p2_sub, (0, 0))
    assert fan.rays == ((-1, -1), (1, 0), (0, 1))


def test_fan_at_vertex_rejects_boundary(p2_sub):
    with pytest.raises(LatticeError, match="not an interior vertex"):
        fan_at_vertex(p2_sub, (1, 0))


def test_self_intersections_p2_and_blowup(p2_sub, blowup_sub):
    assert self_intersections(fan_at_vertex(p2_sub, (0, 0))) == (1, 1, 1)
    assert self_intersections(fan_at_vertex(blowup_sub, (1, 1))) == (0, -1, 0, 1)


def test_self_intersections_quadric():
    fan = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert self_intersections(fan) == (0, 0, 0, 0)


def test_self_intersections_needs_smooth_fan():
    fan = make_fan([(1, 0), (-1, 2), (-1, -1)])
    assert not is_smooth(fan)
    with pytest.raises(LatticeError, match="fan not smooth"):
        self_intersections(fan)


@given(st.integers(0, 10 ** 6))
def test_random_grown_fans_stay_smooth(seed):
    fan = random_smooth_fan(random.Random(seed))
    assert 5 <= len(fan.rays) <= 9
    assert is_smooth(fan)
    # smoothness relation: neighbors of each ray differ by -b_j times the ray
    b = self_intersections(fan)
    r = len(fan.rays)
    for j in range(r):
        prev, nxt, u = fan.rays[j - 1], fan.rays[(j + 1) % r], fan.rays[j]
        assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (-b[j] * u[0], -b[j] * u[1])


def test_a2d_vertex_fans_match_ladder(a2d3_sub):
    for v in ((1, 1), (2, 1)):
        fan = fan_at_vertex(a2d3_sub, v)
        assert len(fan.rays) == 5
        assert is_smooth(fan)


def test_the_link_walk_equals_the_angle_sort(oracle_subdivisions):
    """fan_at_vertex walks v's link; the oracle sorts the star's directions by angle.

    fan_at_vertex skips Fan's check, so each fan it builds passes that check here.
    """
    for sub in (*oracle_subdivisions, *(hex_grid(n) for n in range(4, 13)), a2d_subdivision(80)):
        for v in checked(sub).interior_vertices:
            fan = fan_at_vertex(sub, v)
            fan._check()
            assert fan == sorted_fan_at_vertex(sub, v)


def test_the_curve_and_its_canonical_classes_check_no_fan(monkeypatch):
    """validate proved what Fan's check tests, so neither the curve nor K_C runs it."""
    checks, real = [], Fan.__init__

    def counted(fan, *args):
        checks.append(fan)
        real(fan, *args)

    monkeypatch.setattr(Fan, "__init__", counted)
    make_fan([(1, 0), (0, 1), (-1, -1)])
    assert len(checks) == 1  # the counter sees a fan built by calling the class
    checks.clear()
    for sub in (local_p2(), blowup_p2(), a2d_subdivision(20), hex_grid(6)):
        for region in tropical_curve(sub).regions:
            canonical_KC(region)
    assert checks == []


def test_a_link_that_does_not_close_raises(p2_sub, monkeypatch):
    """With one step gone from the link of (0, 0), the walk cannot get back to its first ray."""
    index = checked(p2_sub)
    links = dict(index.links)
    links[0, 0] = dict(list(links[0, 0].items())[1:])
    monkeypatch.setattr(fan_module, "checked", lambda sub: index._replace(links=links))
    with pytest.raises(LatticeError, match=r"the link of \(0, 0\) does not close"):
        fan_at_vertex(p2_sub, (0, 0))


def test_self_intersections_sum_rule():
    # Noether: the b_j of a smooth complete fan with r rays sum to 12 - 3r
    for rays in (
        [(1, 0), (0, 1), (-1, -1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    ):
        fan = make_fan(rays)
        b = self_intersections(fan)
        assert sum(b) == 12 - 3 * len(b)
