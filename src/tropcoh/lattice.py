"""Exact rank-two lattice arithmetic, small integer matrix kernels and floor sums.

Everything here is plain integer or Fraction arithmetic; no floats.  Vectors
are ordinary tuples so they stay hashable and JSON-friendly.

Points of the half lattice (support parts theta, boundary curve vertices)
are carried doubled, as integer pairs.  `dual_numerators` gives det(u, v)
times the solution of a 2x2 pairing system, which is the exact solution
itself on a smooth cone (det = 1).

The winding and cohomology counts share `threshold_slabs`: it cuts rows
into slabs on which threshold lines keep their order, and sums each line's
row thresholds ceil((n0 + n1 y) / den) over a slab with `floor_sum`.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int, int]
QVec = tuple[Fraction, Fraction]

# threshold_slabs sums a slab of at most this many rows row by row, which is cheaper there
SHORT_SLAB = 4


class LatticeError(ValueError):
    """Raised when exact geometric preconditions fail."""


class SizeLimitError(LatticeError):
    """Raised when a requested table or sweep is larger than its documented limit."""


class InternalError(LatticeError):
    """Raised by a guard that runs after validation: a broken invariant of the package, not of its input."""


def record(cls):
    """A typing.NamedTuple class as a record: cheap to define and build, equal only to a record of
    its own type with equal fields (unless it defines __eq__); its _check, if any, is its __init__."""
    if "__eq__" not in vars(cls):
        cls.__eq__ = lambda self, other: type(other) is cls and tuple.__eq__(self, other)
    cls.__ne__ = object.__ne__
    if "_check" in vars(cls):
        cls.__init__ = cls._check
    return cls


def vadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def vsub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def vneg(v):
    return (-v[0], -v[1])


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def det2(u: Sequence[int], v: Sequence[int]):
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def rot90(v):
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def as_int(x, what: str) -> int:
    """x as an int; anything but an integer or an integral Fraction raises, naming what it is.

    So 3.9 or 7/2 is refused rather than rounded toward zero, and True
    rather than read as 1.
    """
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise LatticeError(f"{what} is {x!r}, not an integer")


def as_ints(values, what: str) -> tuple[int, ...]:
    """The entries as ints, by as_int; a refused entry is named by what it is and its index."""
    values = tuple(values)
    if all(type(x) is int for x in values):
        return values
    return tuple(as_int(x, f"{what} {j}") for j, x in enumerate(values))


def primitive(v: Vec) -> Vec:
    """Shortest integer vector with the same direction as v."""
    if v[0] == 0 and v[1] == 0:
        raise LatticeError("zero has no primitive direction")
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def is_primitive(v: Vec) -> bool:
    return (v[0] != 0 or v[1] != 0) and gcd(abs(v[0]), abs(v[1])) == 1


def lex_positive(v: Vec) -> Vec:
    """The representative of {v, -v} with x > 0, or x = 0 and y > 0."""
    if v[0] > 0 or (v[0] == 0 and v[1] > 0):
        return v
    return vneg(v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a * i + b) / m) over 0 <= i < n, in O(log m) steps.

    The Euclid-like recursion of the AtCoder Library (atcoder/math.hpp):
    after a and b are reduced into [0, m), the sum counts the lattice points
    under the line y = (a * x + b) / m, which is the same count with the axes
    swapped and (m, a) replaced by (a, m mod a).
    """
    if n < 0 or m < 1:
        raise LatticeError("floor_sum needs n >= 0 and m >= 1")
    total = 0
    while True:
        # floor division reduces a negative a or b into [0, m) too
        q, a = divmod(a, m)
        total += n * (n - 1) // 2 * q
        q, b = divmod(b, m)
        total += n * q
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def cut_at_row(starts: set[int], p: int, q: int) -> None:
    """Start slabs so that none holds rows on both sides of y = p / q.

    A row y = p / q that is an integer becomes a slab of its own; q = 0
    (parallel lines) cuts nothing.
    """
    if q == 0:
        return
    if q < 0:
        p, q = -p, -q
    starts.add(p // q + 1)
    starts.add(-(-p // q))


def slabs(starts: Iterable[int], first: int, last: int):
    """Yield (a, b) for the slabs a <= y <= b that the starts cut [first, last] into."""
    cuts = sorted(y for y in starts if first < y <= last)
    a = first
    for y in cuts:
        yield a, y - 1
        a = y
    yield a, last


def row_thresholds(lines, y: int) -> list[tuple[int, int]]:
    """(t, j) for each threshold line j present on row y, in increasing order of t, then j.

    A line (y0, y1, n0, n1, den), with den > 0, is present on the rows
    y0 <= y <= y1 and has the threshold t = ceil((n0 + n1 y) / den) there.
    """
    out = []
    for j, (y0, y1, n0, n1, den) in enumerate(lines):
        if y0 <= y <= y1:
            out.append((-((-n0 - n1 * y) // den), j))
    out.sort()
    return out


def threshold_rows(lines, first: int, last: int):
    """Yield (y, y, row_thresholds(lines, y)) per row first..last, in threshold_slabs' form."""
    for y in range(first, last + 1):
        yield y, y, row_thresholds(lines, y)


def slab_thresholds(lines, a: int, b: int) -> list[tuple[int, int]]:
    """(sum of t over the rows a..b, j) per line present on them all, in the slab's order.

    No two lines cross inside a slab, so the order of their exact values at
    the middle row, then the index for lines that coincide, is their order
    on every row.  The value (2 n0 + n1 (a + b)) / (2 den) is compared as
    its numerator scaled to the least common multiple of the slab's 2 den.
    """
    n = b - a + 1
    present = [(j, line) for j, line in enumerate(lines) if line[0] <= a and b <= line[1]]
    scale = lcm(*(2 * line[4] for _, line in present))
    order = []
    for j, (_, _, n0, n1, den) in present:
        total = -floor_sum(n, den, -n1, -n0 - n1 * a)
        order.append(((2 * n0 + n1 * (a + b)) * (scale // (2 * den)), j, total))
    order.sort()
    return [(total, j) for _, j, total in order]


def threshold_slabs(lines, first: int, last: int, starts: Iterable[int] = ()):
    """Yield (a, b, thresholds) over the rows first..last, slab by slab.

    The thresholds are those of row_thresholds on a row (a = b) and of
    slab_thresholds on a longer slab: the (t, j) of the present lines in
    left-to-right order, t summed over the slab's rows.  Slabs start at the
    given starts, at the line ends and next to every crossing of two lines,
    so inside one every line is present on all rows or on none and the
    order is the same on every row.  With no more rows than lines squared,
    and on slabs of at most SHORT_SLAB rows, threshold_rows gives the rows.
    """
    if last - first + 1 <= len(lines) ** 2:
        yield from threshold_rows(lines, first, last)
        return
    starts = set(starts)
    for i, (y0, y1, n0, n1, den) in enumerate(lines):
        starts.update((y0, y1 + 1))
        for z0, z1, m0, m1, dem in lines[:i]:
            if max(y0, z0) <= min(y1, z1):
                # (n0 + n1 y) / den = (m0 + m1 y) / dem
                cut_at_row(starts, m0 * den - n0 * dem, n1 * dem - m1 * den)
    for a, b in slabs(starts, first, last):
        if b - a < SHORT_SLAB:
            yield from threshold_rows(lines, a, b)
        else:
            yield a, b, slab_thresholds(lines, a, b)


def _lin(p: int, x: dict[int, int], q: int, y: dict[int, int]) -> dict[int, int]:
    """p x + q y for sparse vectors {position: nonzero entry} and nonzero p and q, as a new dict:
    the longer vector is copied (by ``dict``, in C, when its coefficient is 1), the shorter added."""
    if len(x) < len(y):
        p, x, q, y = q, y, p, x
    return _add(dict(x) if p == 1 else {k: p * v for k, v in x.items()}, q, y)


def _add(x: dict[int, int], q: int, y: dict[int, int]) -> dict[int, int]:
    """x + q y for nonzero q, made in x itself."""
    for k, v in y.items():
        w = x.get(k, 0) + q * v
        if w:
            x[k] = w
        else:
            del x[k]
    return x


def _pair(p: int, q: int, r: int, s: int, x: dict, sx: int, y: dict, sy: int) -> tuple:
    """(p X + q Y, r X + s Y) as (dict, sign, dict, sign), for X = sx x and Y = sy y, signs +-1.

    Here ps - qr = 1, r is not 0 where q is, and s is 0 only where p is (a swap).  Where a
    coefficient is 0, one result is X or Y up to sign and keeps its dict, and the other is
    made in the other dict; otherwise both are new dicts.
    """
    if q == 0:  # p, s = +-1
        return x, p * sx, _add(y, r * s * sx * sy, x), s * sy
    if r == 0:  # p, s = +-1
        return _add(x, p * q * sx * sy, y), p * sx, y, s * sy
    if p == 0:  # q, r = +-1
        return y, q * sy, _add(x, r * s * sx * sy, y) if s else x, r * sx
    return _lin(p * sx, x, q * sy, y), 1, _lin(r * sx, x, s * sy, y), 1


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """column_kernel of the matrix with the given rows; a zero of any type reads as 0, and
    every other entry must be an integer (as_int)."""
    if any(len(r) != ncols for r in rows):
        raise LatticeError("ragged matrix")
    cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in compress(range(ncols), row):
            cols[j].append((i, as_int(row[j], f"row {i}, column {j}")))
    return column_kernel(cols, len(rows))


def column_kernel(columns: Sequence[Iterable[tuple[int, int]]], nrows: int) -> list[list[int]]:
    """Z-basis of the integer kernel of the nrows-row matrix with the given sparse columns,
    each an iterable of (row, nonzero int entry) pairs.

    Unimodular column operations G1, ..., Gn (two-column combines and swaps)
    reduce the matrix A to column echelon form A T, T = G1 ... Gn.  The
    columns of T over the zero columns of A T, T E_S with E_S selecting
    those positions, form a saturated basis of the kernel (any integer
    solution is an integer combination of them).

    Each unreduced column is filed under its first nonzero row.  The rows
    above row r are reduced, so the columns filed under r are the ones
    nonzero there, and row r visits them in increasing position.  A combine
    on (lead, j) leaves row r nonzero in lead and zero in j, so only j is
    filed again, under its new first row.  The column that a swap moves to
    position lead is zero at r, since lead is the least position filed
    there.  So this is the operation sequence of a dense sweep over every
    column, and the basis is the same.

    T itself is never built.  The sweep records G1, ..., Gn, and the basis
    T E_S = G1 (G2 (... (Gn E_S))) is computed from the right, replaying
    them in reverse as row operations on the kernel columns only.  Columns
    and rows are kept as a sign and a dict, and combined by _pair.
    """
    cols = [dict(col) for col in columns]  # changed in place below
    ncols = len(cols)
    ops: list[tuple[int, ...]] = []  # (j0, j1, a, b, c, d); a swap is (pivot, lead, 0, 1, 1, 0)
    first: defaultdict[int, set[int]] = defaultdict(set)  # row -> columns first nonzero there
    for j, col in enumerate(cols):
        if col:
            first[min(col)].add(j)
    sign = [1] * ncols  # column j is sign[j] * cols[j]

    pivot = 0
    for r in range(nrows):
        if r not in first:
            continue
        lead, *rest = sorted(first.pop(r))
        for j in rest:
            # columns (lead, j) <- (x lead + y j, c lead + d j), with xd - yc = 1
            u, w, su, sw = cols[lead], cols[j], sign[lead], sign[j]
            a, b = su * u[r], sw * w[r]
            g, x, y = _xgcd(a, b)
            c, d = -(b // g), a // g
            ops.append((lead, j, x, y, c, d))
            cols[lead], sign[lead], cols[j], sign[j] = _pair(x, y, c, d, u, su, w, sw)
            if cols[j]:
                first[min(cols[j])].add(j)
        if lead != pivot:
            if cols[pivot]:
                bucket = first[min(cols[pivot])]
                bucket.remove(pivot)
                bucket.add(lead)
            ops.append((pivot, lead, 0, 1, 1, 0))
        cols[pivot], cols[lead] = cols[lead], cols[pivot]
        sign[pivot], sign[lead] = sign[lead], sign[pivot]
        pivot += 1
    # from the right: the operation that maps columns (j0, j1) of T by (a, b, c, d)
    # maps rows (X, Y) of the running product to (a X + c Y, b X + d Y), where
    # X = sx x for sx = sign[j0] and x = basis_rows[j0], and Y likewise; c is never 0
    basis_rows: list[dict[int, int]] = [{} for _ in range(pivot)]
    basis_rows += [{s: 1} for s in range(ncols - pivot)]
    sign = [1] * ncols
    for j0, j1, a, b, c, d in reversed(ops):
        rows = _pair(a, c, b, d, basis_rows[j0], sign[j0], basis_rows[j1], sign[j1])
        basis_rows[j0], sign[j0], basis_rows[j1], sign[j1] = rows
    kernel = [[0] * ncols for _ in range(ncols - pivot)]
    for j, (s, row) in enumerate(zip(sign, basis_rows)):
        for t, x in row.items():
            kernel[t][j] = s * x
    return kernel


def dual_numerators(u: Vec, v: Vec, a, b) -> Vec:
    """det(u, v) times the covector m with <m, u> = a and <m, v> = b."""
    return (a * v[1] - b * u[1], b * u[0] - a * v[0])
