"""Exact integer linear algebra, cross-checked against sympy."""

import random
from fractions import Fraction
from math import ceil, gcd
from unittest import mock

import numpy
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from gen_cases import random_smooth_fan
from oracles import dense_integer_kernel, solve_dual
from tropcoh import lattice
from tropcoh.lattice import (
    LatticeError,
    cut_at_row,
    det2,
    dot,
    floor_sum,
    integer_kernel,
    is_primitive,
    lex_positive,
    primitive,
    rot90,
    row_thresholds,
    slabs,
    threshold_slabs,
    vadd,
    vneg,
    vsub,
)

ints = st.integers(min_value=-30, max_value=30)
vecs = st.tuples(ints, ints)


@given(vecs, vecs)
def test_vector_arithmetic_round_trip(u, v):
    assert vsub(vadd(u, v), v) == u
    assert vadd(v, vneg(v)) == (0, 0)
    assert (3 * v[0], 3 * v[1]) == vadd(v, vadd(v, v))


@given(vecs, vecs)
def test_det2_is_antisymmetric(u, v):
    assert det2(u, v) == -det2(v, u)
    assert det2(u, u) == 0


@given(vecs)
def test_rot90_squares_to_minus_one(v):
    assert rot90(rot90(v)) == vneg(v)
    assert dot(v, rot90(v)) == 0


@given(vecs.filter(lambda v: v != (0, 0)))
def test_primitive_divides_and_has_coprime_entries(v):
    p = primitive(v)
    assert is_primitive(p)
    # v is a positive integer multiple of its primitive direction
    k = max(abs(v[0]), abs(v[1])) // max(abs(p[0]), abs(p[1]))
    assert (k * p[0], k * p[1]) == v


def test_primitive_of_zero_fails():
    with pytest.raises(LatticeError, match="zero has no primitive direction"):
        primitive((0, 0))


@given(vecs.filter(lambda v: v != (0, 0)))
def test_lex_positive_fixes_a_sign(v):
    w = lex_positive(v)
    assert w in (v, vneg(v))
    assert w[0] > 0 or (w[0] == 0 and w[1] > 0)


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=3))
def test_integer_kernel_matches_sympy_nullspace(rows):
    kern = integer_kernel(rows, 4)
    M = sympy.Matrix(rows)
    assert len(kern) == 4 - M.rank()
    for vec in kern:
        assert M * sympy.Matrix(4, 1, vec) == sympy.zeros(len(rows), 1)
    if kern:
        K = sympy.Matrix([list(v) for v in kern]).T
        assert K.rank() == len(kern)


def test_integer_kernel_kernel_is_saturated():
    # contents must generate the kernel over Z, not just over Q
    kern = integer_kernel([[2, 4]], 2)
    assert len(kern) == 1
    v = kern[0]
    assert 2 * v[0] + 4 * v[1] == 0
    assert abs(sympy.gcd(v[0], v[1])) == 1


def test_integer_kernel_empty_matrix_needs_width():
    # the width is a required argument, so an empty matrix has one
    with pytest.raises(TypeError):
        integer_kernel([])
    assert integer_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_integer_kernel_rejects_ragged_input():
    with pytest.raises(LatticeError, match="ragged"):
        integer_kernel([[1, 2], [1]], 2)


# mostly zeros, like the balancing matrices, with zero rows and columns forced in
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-6, 6))


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 9))
    row = st.lists(sparse_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[j] = 0
    return rows, ncols


@given(sparse_matrices())
@example(([], 5))
@example(([[0, 0, 0], [0, 0, 0]], 3))
# each branch of the replay: a divides b, so row j1 keeps its dict (b = 0) ...
@example(([[1, 3]], 2))
# ... a = +-b, so row j1's dict moves to row j0 with a sign (a = 0), as on a
# pivot swap under a nonempty kernel ...
@example(([[1, 1]], 2))
@example(([[1, -1]], 2))
@example(([[-2, 2]], 2))
@example(([[0, 1, 1]], 3))
# ... and neither, so both rows are new: coefficients that are not units,
# unit coefficients, and rows that already carry a sign
@example(([[3, 5]], 2))
@example(([[6, 10, 15]], 3))
@example(([[2, 3]], 2))
@example(([[1, -2, 1], [1, 0, 0]], 3))
def test_integer_kernel_equals_the_dense_echelon(case):
    rows, ncols = case
    before = [list(r) for r in rows]
    want = dense_integer_kernel(rows, ncols)
    assert integer_kernel(rows, ncols) == want
    assert rows == before


@pytest.mark.parametrize("bad", [1.5, True, Fraction(1, 2), float("nan"), "a"])
def test_integer_kernel_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(LatticeError, match=r"row 1, column 2 is .+, not an integer"):
        integer_kernel([[1, 0, 0], [0, 1, bad]], 3)


def test_integer_kernel_reads_integral_entries_and_zeros_of_any_type_as_ints():
    rows = [[2, 0, 4, -6], [0, 3, 0, 9]]
    want = integer_kernel(rows, 4)
    for entry in (lambda x: Fraction(2 * x, 2), numpy.int64):
        got = integer_kernel([[entry(x) for x in r] for r in rows], 4)
        assert got == want
        assert all(type(x) is int for v in got for x in v)
    assert integer_kernel([[Fraction(4, 2), 0.0, 4, -6], [False, 3, Fraction(0), 9]], 4) == want


@st.composite
def larger_sparse_matrices(draw):
    """Up to 14 x 20, mostly zeros: non-unit leads and pivot swaps deep in a long sweep."""
    nrows = draw(st.integers(0, 14))
    ncols = draw(st.integers(1, 20))
    row = st.lists(sparse_entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@given(larger_sparse_matrices())
def test_integer_kernel_equals_the_dense_echelon_on_larger_matrices(case):
    rows, ncols = case
    assert integer_kernel(rows, ncols) == dense_integer_kernel(rows, ncols)


def test_integer_kernel_equals_the_dense_echelon_on_fan_balance_matrices():
    """The 2 x r balancing rows of random smooth fans, as the twisting draws use them."""
    rng = random.Random(5)
    for _ in range(60):
        rays = random_smooth_fan(rng, 3, 12).rays
        rows = [[-u[1] for u in rays], [u[0] for u in rays]]
        assert integer_kernel(rows, len(rays)) == dense_integer_kernel(rows, len(rays))


@pytest.mark.parametrize("kernel", [integer_kernel, dense_integer_kernel])
def test_integer_kernel_errors_match_the_dense_echelon(kernel):
    with pytest.raises(LatticeError, match="ragged"):
        kernel([[1, 2], [1]], 2)
    with pytest.raises(LatticeError, match="ragged"):
        kernel([[1, 2]], 3)


@given(vecs, vecs, ints, ints)
def test_solve_dual_reproduces_the_pairings(u, v, a, b):
    if det2(u, v) == 0:
        with pytest.raises(LatticeError, match="singular"):
            solve_dual(u, v, a, b)
        return
    m = solve_dual(u, v, Fraction(a), Fraction(b))
    assert dot(m, u) == a
    assert dot(m, v) == b


def brute_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


@given(st.integers(0, 60), st.integers(1, 60), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@example(0, 1, 0, 0)
@example(0, 7, -5, -9)
@example(1, 1, -1, -1)
@example(60, 1, -10**6, 10**6)
def test_floor_sum_matches_the_brute_force_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)


@pytest.mark.parametrize(
    "n, m, a, b",
    [
        (0, 1, 5, 5),
        (0, 10**30, -(10**40), 3),
        (1, 1, 0, 0),
        (5, 1, -3, -7),
        (40, 10**20, 10**25 + 7, -(10**22) - 1),
        (40, 10**20 + 3, -(10**25), 10**21),
        (50, 7, -(10**30), -(10**30)),
    ],
)
def test_floor_sum_on_edge_and_huge_arguments(n, m, a, b):
    assert floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)


def test_floor_sum_of_a_huge_range_has_the_closed_forms():
    n = 10**18 + 1
    assert floor_sum(n, 1, 3, -5) == 3 * n * (n - 1) // 2 - 5 * n
    assert floor_sum(n, 2, 1, 0) == (n - 1) ** 2 // 4
    # reciprocity: sum of floor(a i / m) over 0 <= i < m is ((a-1)(m-1) + gcd(a, m) - 1) / 2
    a, m = 10**17 + 9, 10**18 + 3
    assert floor_sum(m, m, a, 0) == ((a - 1) * (m - 1) + gcd(a, m) - 1) // 2


@pytest.mark.parametrize("n, m", [(-1, 1), (3, 0), (3, -2)])
def test_floor_sum_rejects_a_negative_count_or_modulus(n, m):
    with pytest.raises(LatticeError, match="n >= 0 and m >= 1"):
        floor_sum(n, m, 1, 1)


@given(st.integers(-40, 40), st.integers(-9, 9), st.integers(-30, 0), st.integers(0, 30))
def test_slabs_never_straddle_a_cut_row(p, q, first, last):
    starts = set()
    cut_at_row(starts, p, q)
    got = list(slabs(starts, first, last))
    assert [y for a, b in got for y in range(a, b + 1)] == list(range(first, last + 1))
    if q == 0:
        assert got == [(first, last)]
        return
    y = Fraction(p, q)
    for a, b in got:
        assert b < y or a > y or a == b == y


@st.composite
def threshold_lines(draw):
    """Rows first..last, extra starts, and up to 8 lines (y0, y1, n0, n1, den).

    Besides random lines there are parallel copies (the same slope n1 / den,
    another offset) and coincident ones (the same line times k), on their own
    ranges of rows, which may stick out of first..last or be empty.
    """
    first = draw(st.integers(-12, 0))
    last = draw(st.integers(first, first + 70))
    rows = st.integers(first - 4, last + 4)

    def span():
        y0 = draw(rows)
        return y0, draw(st.integers(y0 - 1, last + 4))

    lines = []
    for _ in range(draw(st.integers(0, 4))):
        n0, n1, den = draw(st.integers(-90, 90)), draw(st.integers(-12, 12)), draw(st.integers(1, 7))
        lines.append((*span(), n0, n1, den))
        k = draw(st.integers(1, 3))
        copy = draw(st.sampled_from(("none", "parallel", "coincident")))
        if copy == "parallel":
            lines.append((*span(), k * n0 + draw(st.integers(-9, 9)), k * n1, k * den))
        elif copy == "coincident":
            lines.append((*span(), k * n0, k * n1, k * den))
    starts = draw(st.sets(st.integers(first - 2, last + 2), max_size=3))
    return lines, first, last, starts


def _ceiling(line, y):
    _, _, n0, n1, den = line
    return ceil(Fraction(n0 + n1 * y, den))


def _check_threshold_slabs(lines, first, last, starts):
    got = list(threshold_slabs(lines, first, last, starts))
    assert [y for a, b, _ in got for y in range(a, b + 1)] == list(range(first, last + 1))
    if last - first + 1 > len(lines) ** 2:
        assert {a for a, _, _ in got} >= {y for y in starts if first < y <= last}
    for a, b, thresholds in got:
        for y in range(a, b + 1):
            present = [j for j, line in enumerate(lines) if line[0] <= y <= line[1]]
            assert sorted(j for _, j in thresholds) == present
            row = [_ceiling(lines[j], y) for _, j in thresholds]
            assert row == sorted(row)
        for total, j in thresholds:
            assert total == sum(_ceiling(lines[j], y) for y in range(a, b + 1))


@given(threshold_lines())
@example(([(-5, 60, 7, 3, 2), (0, 40, -7, -3, 2), (3, 50, 1, 1, 1)], -5, 60, {10}))
@example(([(0, 60, 3, 2, 5), (0, 60, 6, 4, 10), (10, 9, 0, 1, 1)], 0, 60, set()))
def test_threshold_slabs_match_the_row_ceilings(case):
    """Each slab's totals are the sums of its row ceilings, in an order sorted on every row."""
    lines, first, last, starts = case
    for y in range(first - 1, last + 2):
        assert row_thresholds(lines, y) == sorted(
            (_ceiling(line, y), j) for j, line in enumerate(lines) if line[0] <= y <= line[1]
        )
    _check_threshold_slabs(lines, first, last, starts)
    with mock.patch.object(lattice, "SHORT_SLAB", 0):
        _check_threshold_slabs(lines, first, last, starts)


@pytest.mark.parametrize(
    "values, message",
    [
        ((True, 0), "entry 0 is True, not an integer"),
        ((0, Fraction(2, 2), False), "entry 2 is False, not an integer"),
        ((0, numpy.array(1.5)), "entry 1 is array(1.5), not an integer"),
    ],
)
def test_as_ints_refuses_booleans(values, message):
    # operator.index(True) is 1, so a bool used to pass as 0 or 1; a 0-d
    # float array has __index__ but refuses it with a TypeError
    with pytest.raises(LatticeError) as raised:
        lattice.as_ints(values, "entry")
    assert str(raised.value) == message
