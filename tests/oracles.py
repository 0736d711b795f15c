"""Reference versions of the routines the library now computes sparsely, in integers or itself.

These are the library's earlier implementations.  The library's results
must equal theirs exactly: list for list for the kernel, value for value for
the slopes and kinks, pointer and message for the input-document check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import jsonschema

from tropcoh.lattice import LatticeError, _xgcd, rot90, solve_dual, vsub
from tropcoh.io import input_schema
from tropcoh.polytope import edges


@lru_cache(maxsize=1)
def _strict_draft7():
    """Draft 7 with "integer" meaning a JSON integer: 2.0 is a float, not an integer."""
    checker = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: type(x) is int
    )
    cls = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=checker)
    return cls(input_schema())


def schema_first_error(raw):
    """(path, message) of jsonschema's first error when sorted by path, or None if it accepts."""
    errors = sorted(_strict_draft7().iter_errors(raw), key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def dense_integer_kernel(rows, ncols=None) -> list[list[int]]:
    """Column echelon over dense lists, every column of every row visited."""
    nrows = len(rows)
    if ncols is None:
        if nrows == 0:
            raise LatticeError("column count needed for an empty matrix")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise LatticeError("ragged matrix")

    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    trans = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]

    def combine(j0, j1, a, b, c, d):
        for mat in (cols, trans):
            x, y = mat[j0], mat[j1]
            mat[j0] = [a * xi + b * yi for xi, yi in zip(x, y)]
            mat[j1] = [c * xi + d * yi for xi, yi in zip(x, y)]

    pivot = 0
    for r in range(nrows):
        lead = None
        for j in range(pivot, ncols):
            if cols[j][r] == 0:
                continue
            if lead is None:
                lead = j
                continue
            a, b = cols[lead][r], cols[j][r]
            g, x, y = _xgcd(a, b)
            combine(lead, j, x, y, -(b // g), a // g)
        if lead is not None:
            cols[pivot], cols[lead] = cols[lead], cols[pivot]
            trans[pivot], trans[lead] = trans[lead], trans[pivot]
            pivot += 1
    return [list(trans[j]) for j in range(pivot, ncols)]


def fraction_slope(sub, values, t: int) -> tuple[Fraction, Fraction]:
    """Slope of the interpolant on triangle t by an exact Fraction 2x2 solve."""
    i0, i1, i2 = sub.triangles[t]
    v0, v1, v2 = sub.points[i0], sub.points[i1], sub.points[i2]
    f0, f1, f2 = Fraction(values[i0]), Fraction(values[i1]), Fraction(values[i2])
    return solve_dual(vsub(v1, v0), vsub(v2, v0), f1 - f0, f2 - f0)


def fraction_kinks(sub, values) -> dict:
    """Kink of each interior edge from two Fraction solves, in edge order.

    The slope jump must be a multiple of n_e; the kink is read off one
    nonzero coordinate of n_e, not projected onto it.
    """
    out = {}
    for e in edges(sub):
        if e.is_boundary:
            continue
        m_plus = fraction_slope(sub, values, e.plus_triangle)
        m_minus = fraction_slope(sub, values, e.minus_triangle)
        delta = vsub(m_plus, m_minus)
        n_e = rot90(e.n_check)
        if delta[0] * n_e[1] != delta[1] * n_e[0]:
            raise ValueError(f"slope jump {delta} across {e.key} is not along {n_e}")
        out[e.key] = Fraction(delta[0], n_e[0]) if n_e[0] else Fraction(delta[1], n_e[1])
    return out
