"""Figure output: element counts, colors, and byte determinism."""

from fractions import Fraction

import pytest

from tropcoh.lattice import LatticeError
from tropcoh.spheres import gamma_curve, theta_from_twisting, twisting
from tropcoh.svg import NEGATIVE_FILL, POSITIVE_FILL, _Canvas, render_svg
from tropcoh.winding import winding_table


def test_p2_curve_figure_counts(p2_curve):
    svg = render_svg(p2_curve)
    assert svg.count(b'class="vertex"') == 3
    assert svg.count(b'class="edge"') == 3
    assert svg.count(b'class="ray"') == 3


def test_svg_header(p2_curve):
    svg = render_svg(p2_curve)
    assert svg.startswith(b'<?xml version="1.0"')
    assert b'version="1.1"' in svg
    assert b'xmlns="http://www.w3.org/2000/svg"' in svg
    assert svg.endswith(b"</svg>\n")


def test_output_is_ascii_and_deterministic(p2_curve):
    a = render_svg(p2_curve)
    b = render_svg(p2_curve)
    assert a == b
    a.decode("ascii")


def test_winding_figure_marks(blowup_theta):
    gamma = gamma_curve(blowup_theta)
    table = winding_table(blowup_theta)
    svg = render_svg(gamma, table)
    assert svg.count(b'class="winding-point"') == 13
    assert svg.count(b'class="winding-label"') == 13
    assert svg.count(POSITIVE_FILL.encode()) == 10
    assert svg.count(NEGATIVE_FILL.encode()) == 3
    assert svg.count(b'class="gamma"') == 1


def test_gamma_without_table_draws_curve_only(p2_region):
    theta = theta_from_twisting(twisting(p2_region, (1, 1, 1)))
    svg = render_svg(gamma_curve(theta))
    assert svg.count(b'class="gamma"') == 1
    assert b'class="winding-point"' not in svg
    assert b'class="winding-label"' not in svg


def test_empty_table_draws_no_marks(p2_region):
    theta = theta_from_twisting(twisting(p2_region, (1, 1, 1)))
    table = winding_table(theta)
    assert table.entries == {}
    svg = render_svg(gamma_curve(theta), table)
    assert b'class="winding-point"' not in svg


def test_table_forbidden_for_tropical_curves(p2_curve, blowup_theta):
    with pytest.raises(LatticeError, match="attach to a gamma curve"):
        render_svg(p2_curve, winding_table(blowup_theta))


def test_a_ray_that_stays_in_the_frame_is_named():
    canvas = _Canvas([0, 1], [0, 1])
    with pytest.raises(LatticeError, match=r"ray from \(0, 0\) along \(0, 0\)"):
        canvas.clip_ray((0, 0), (0, 0))


@pytest.mark.parametrize("xs", [[0, 10**400], [0, Fraction(-(10**400), 3)], [-1e308, 1e308]])
def test_a_frame_outside_the_float_range_is_named(xs):
    with pytest.raises(LatticeError, match="the figure's coordinates lie outside the float range"):
        _Canvas(xs, [0, 1])


def test_label_text_shows_the_winding_value(blowup_theta):
    svg = render_svg(gamma_curve(blowup_theta), winding_table(blowup_theta)).decode()
    assert svg.count(">1</text>") == 10
    assert svg.count(">-1</text>") == 3
