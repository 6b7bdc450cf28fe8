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

One fraction-free Gauss-Jordan, :func:`_reduce`, serves both exact solves:
the kernel basis of the general-position walk and the pivot solve of the
solution count.  ``rank`` stays forward-only: it needs no reduced form, and
Gauss-Jordan made the verifier's away-set ranks 1.5 to 1.8 times slower.

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


def _reduce(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on the int rows ``m``, in place: the pivot
    columns in order, and the last pivot D (1 when there is none).

    Every other row is reduced at each pivot, each division by the previous
    pivot exact as in :func:`rank`.  Pivot row i ends with D at its pivot
    column and 0 at the others, so with an invertible leading block C the
    later columns x become D C^-1 x.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
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
    return pivots, prev


def _kernel(columns: Sequence[IntVector]) -> tuple[int, list[IntVector]]:
    """The rank of the matrix with ``columns`` as its columns, and the rows
    of an integer basis of its kernel, one row per column, each row scaled
    to a primitive direction.

    Pivot row i of :func:`_reduce` holds D != 0 at its pivot column p_i and
    0 at the other pivot columns, so free column f and x_f = 1 give the
    kernel vector with x_(p_i) = -R_i,f / D.  Scaling a row of the basis
    does not change which sets of its rows are independent, so pivot p_i's
    row is R_i restricted to the free columns, and free column f's row is
    the unit vector of f.  At least one column is expected.
    """
    m = [list(row) for row in zip(*columns)]
    pivots, _ = _reduce(m)
    free = sorted(set(range(len(columns))).difference(pivots))
    rows: list[IntVector] = [()] * len(columns)
    for i, col in enumerate(pivots):
        rows[col] = _primitive([m[i][f] for f in free])
    for j, col in enumerate(free):
        rows[col] = (0,) * j + (1,) + (0,) * (len(free) - 1 - j)
    return len(pivots), rows
