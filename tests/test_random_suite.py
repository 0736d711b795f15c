"""Seeded bulk comparison of the three winding number computations."""

import random

from gen_cases import random_theta


def test_five_hundred_random_cases_agree(random_cross_check):
    nonempty, entries = random_cross_check
    # the sample has to exercise the oracles, not just empty tables
    assert nonempty > 400
    assert entries > 2000


def test_generator_respects_its_bounds():
    from tropcoh.spheres import kinks_of_theta

    rng = random.Random(11)
    for _ in range(50):
        theta = random_theta(rng)
        r = len(theta.fan.rays)
        assert 5 <= r <= 9
        ell = kinks_of_theta(theta).ell
        assert max(abs(l) for l in ell) <= 12
