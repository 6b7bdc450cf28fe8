"""Exact linear algebra over the integers.

Vectors are plain tuples of Python ints.  Rank is Bareiss's fraction-free
elimination: every intermediate entry is a minor of the input, so each
division by the previous pivot is exact and no gcd is ever taken.  Only int
entries are accepted; on a Fraction the floor division would silently give a
wrong rank.

Orthogonal projection runs as integer Gram-Schmidt.  Each orthogonalized
vector is kept as a primitive integer direction (the gcd divided out, the
sign kept), and removing the component along g_m from r is
r <- <g_m, g_m> r - <g_m, r> g_m, a positive multiple of the rational
residual.  A span depends only on the directions that span it, so the
residual's direction is that of the exact rational residual.

A kernel basis comes from the same fraction-free elimination run to reduced
form (Gauss-Jordan): every row is reduced against each new pivot, so the
pivot block ends diagonal and each kernel vector reads off one free column.

There is no floating point and no tolerance anywhere in this module:
orthogonality, rank and linear independence are decided exactly.
"""

from __future__ import annotations

import math
from operator import index, mul
from typing import Sequence

from .errors import DimMismatchError

IntVector = tuple[int, ...]


def _primitive(v: Sequence[int]) -> IntVector:
    """v divided by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank by Bareiss fraction-free elimination on integer rows.

    Raises TypeError on an entry that is not an int (a Fraction, float or
    string).
    """
    m = [list(map(index, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise DimMismatchError("rows of unequal length")
    r, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[col]
        for i in range(r + 1, len(m)):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
        r += 1
        if r == len(m):
            break
    return r


def _residual(ortho: Sequence[tuple[IntVector, int]], x: IntVector) -> IntVector:
    """x minus its projection onto span(ortho), as a primitive direction.

    ``ortho`` holds mutually orthogonal nonzero integer vectors with their
    squared norms.  When every coefficient <g_m, x> is 0, that is when x is
    already orthogonal to the span, x is returned as given.
    """
    r = x
    for gm, norm in ortho:
        c = sum(map(mul, gm, r))
        if c:
            r = [norm * a - c * b for a, b in zip(r, gm)]
    return x if r is x else _primitive(r)


def _orthogonal_basis(vectors: Sequence[IntVector]) -> list[tuple[IntVector, int]]:
    """Gram-Schmidt in input order over the integers, skipping vectors that
    reduce to zero; each kept vector comes with its squared norm."""
    ortho: list[tuple[IntVector, int]] = []
    for b in vectors:
        if ortho and len(ortho) == len(b):
            break  # the span is already everything
        r = _residual(ortho, b)
        if any(r):
            ortho.append((r, sum(map(mul, r, r))))
    return ortho


def _kernel(columns: Sequence[IntVector]) -> tuple[int, list[IntVector]]:
    """The rank of the matrix with ``columns`` as its columns, and the rows
    of an integer basis of its kernel, one row per column, each row scaled
    to a primitive direction.

    Fraction-free Gauss-Jordan: at each pivot every other row is reduced,
    and each division by the previous pivot is exact, as in :func:`rank`.
    In the end pivot row i holds D_i != 0 at its pivot column p_i and 0 at
    the other pivot columns, so free column f and x_f = 1 give the kernel
    vector with x_(p_i) = -R_i,f / D_i.  Scaling a row of the basis does not
    change which sets of its rows are independent, so pivot p_i's row is
    R_i restricted to the free columns, and free column f's row is the unit
    vector of f.  At least one column is expected.
    """
    m = [list(row) for row in zip(*columns)]
    pivots: list[int] = []
    prev = 1
    for col in range(len(columns)):
        r = len(pivots)
        if r == len(m):
            break
        for piv in range(r, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                a = row[col]
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    free = sorted(set(range(len(columns))).difference(pivots))
    rows: list[IntVector] = [()] * len(columns)
    for i, col in enumerate(pivots):
        rows[col] = _primitive([m[i][f] for f in free])
    for j, col in enumerate(free):
        rows[col] = (0,) * j + (1,) + (0,) * (len(free) - 1 - j)
    return len(pivots), rows
