"""Exact integer linear algebra, cross-checked against sympy."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from gen_cases import random_smooth_fan
from oracles import dense_integer_kernel
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
    slabs,
    solve_dual,
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
    with pytest.raises(LatticeError, match="column count"):
        integer_kernel([])
    assert len(integer_kernel([], 3)) == 3


def test_integer_kernel_rejects_ragged_input():
    with pytest.raises(LatticeError, match="ragged"):
        integer_kernel([[1, 2], [1]])


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
def test_integer_kernel_equals_the_dense_echelon(case):
    rows, ncols = case
    want = dense_integer_kernel(rows, ncols)
    assert integer_kernel(rows, ncols) == want
    if rows:
        assert integer_kernel(rows) == want


def test_integer_kernel_equals_the_dense_echelon_on_fan_balance_matrices():
    """The 2 x r balancing rows of random smooth fans, as the twisting draws use them."""
    rng = random.Random(5)
    for _ in range(60):
        rays = random_smooth_fan(rng, 3, 12).rays
        rows = [[-u[1] for u in rays], [u[0] for u in rays]]
        assert integer_kernel(rows, len(rays)) == dense_integer_kernel(rows, len(rays))


@pytest.mark.parametrize("kernel", [integer_kernel, dense_integer_kernel])
def test_integer_kernel_errors_match_the_dense_echelon(kernel):
    with pytest.raises(LatticeError, match="column count"):
        kernel([])
    with pytest.raises(LatticeError, match="ragged"):
        kernel([[1, 2], [1]])
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
