"""Exact linear algebra over the integers, with rational views.

The working vectors are plain tuples of Python ints.  Rank is Bareiss's
fraction-free elimination: every intermediate entry is a minor of the input,
so each division by the previous pivot is exact and no gcd is ever taken.
Rows with rational entries are first scaled by the lcm of their
denominators, which leaves the rank unchanged.

Orthogonal projection runs as integer Gram-Schmidt.  Each orthogonalized
vector is kept as a primitive integer direction (the gcd divided out, the
sign kept), and removing the component along g_m from r is
r <- <g_m, g_m> r - <g_m, r> g_m, a positive multiple of the rational
residual.  The span, and so the projection, depends only on directions;
the exact rationals of :func:`project_onto_span` are recovered from the
residual's direction at the end.  :func:`vector` and the Fraction results
are the public rational views.

There is no floating point and no tolerance anywhere in this module:
orthogonality, rank and linear independence are decided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import index, mul
from typing import Iterable, Sequence

from .errors import DimMismatchError, TooLargeError

RatVector = tuple[Fraction, ...]
IntVector = tuple[int, ...]

#: subset-enumeration guard for general-position checks
GENERAL_POSITION_SUBSET_LIMIT = 10**6


def vector(entries: Iterable) -> RatVector:
    """Coerce an iterable of ints / Fractions / "p/q" strings to a RatVector."""
    return tuple(
        parse_rational(x) if isinstance(x, str) else Fraction(x) for x in entries
    )


def inner(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimMismatchError(f"inner product of dim {len(u)} with dim {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Sequence, v: Sequence) -> RatVector:
    if len(u) != len(v):
        raise DimMismatchError(f"difference of dim {len(u)} and dim {len(v)}")
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def _int_row(row: Iterable) -> list[int]:
    """The row itself if every entry is an int, else the row times the lcm
    of its denominators (entries as :func:`vector` reads them)."""
    row = list(row)
    try:
        return list(map(index, row))
    except TypeError:
        q = vector(row)
        den = math.lcm(*(x.denominator for x in q))
        return [x.numerator * (den // x.denominator) for x in q]


def _primitive(v: Sequence[int]) -> IntVector:
    """v divided by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by Bareiss fraction-free elimination on integer rows."""
    m = [_int_row(row) for row in rows]
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


def _residual(
    ortho: Sequence[tuple[IntVector, int]], x: IntVector
) -> tuple[IntVector, bool]:
    """x minus its projection onto span(ortho), as a primitive direction.

    ``ortho`` holds mutually orthogonal nonzero integer vectors with their
    squared norms.  The flag is False exactly when every coefficient
    <g_m, x> is 0, that is when x is already orthogonal to the span; x is
    then returned as given.
    """
    r = x
    moved = False
    for gm, norm in ortho:
        c = sum(map(mul, gm, r))
        if c:
            r = [norm * a - c * b for a, b in zip(r, gm)]
            moved = True
    return (_primitive(r), True) if moved else (x, False)


def _orthogonal_basis(vectors: Sequence[IntVector]) -> list[tuple[IntVector, int]]:
    """Gram-Schmidt in input order over the integers, skipping vectors that
    reduce to zero; each kept vector comes with its squared norm."""
    ortho: list[tuple[IntVector, int]] = []
    for b in vectors:
        if ortho and len(ortho) == len(b):
            break  # the span is already everything
        r, _ = _residual(ortho, b)
        if any(r):
            ortho.append((r, sum(map(mul, r, r))))
    return ortho


def _component(x: Sequence, r: IntVector) -> RatVector:
    """The exact component of x along the integer direction r."""
    x = vector(x)
    norm = sum(map(mul, r, r))
    if not norm:
        return tuple(Fraction(0) for _ in x)
    c = sum(map(mul, r, x), Fraction(0)) / norm
    return tuple(c * a for a in r)


def project_onto_span(basis: Sequence[Sequence], x: Sequence) -> RatVector:
    """Orthogonal projection of x onto span(basis), in exact rationals.

    Gram-Schmidt in input order over the integer directions of the basis;
    vectors that reduce exactly to zero are skipped, and an empty basis
    projects to zero.  The residual x - p is orthogonal to the span, so it
    is the component of x along the integer residual direction, and
    p = x minus that component.
    """
    x = vector(x)
    dim = len(x)
    ints = []
    for b in basis:
        b = _int_row(b)
        if len(b) != dim:
            raise DimMismatchError(f"basis vector dim {len(b)}, expected {dim}")
        ints.append(_primitive(b))
    r, _ = _residual(_orthogonal_basis(ints), _primitive(_int_row(x)))
    return vec_sub(x, _component(x, r))


def is_general_position(vectors: Sequence[Sequence], d: int) -> bool:
    """True iff every subset of size min(d, len(vectors)) is independent.

    Checked exhaustively with exact ranks; guarded to
    C(len(vectors), d) <= 10^6 subsets.
    """
    vecs = [scale_to_integers(v) for v in vectors]
    for v in vecs:
        if len(v) != d:
            raise DimMismatchError(f"vector dim {len(v)}, expected {d}")
    m = min(d, len(vecs))
    if m == 0:
        return True
    if math.comb(len(vecs), m) > GENERAL_POSITION_SUBSET_LIMIT:
        raise TooLargeError(
            f"C({len(vecs)}, {m}) subsets exceed the "
            f"{GENERAL_POSITION_SUBSET_LIMIT} guard"
        )
    return all(rank(subset) == m for subset in combinations(vecs, m))


def scale_to_integers(v: Sequence) -> IntVector:
    """Smallest parallel integer vector pointing the same way.

    Multiplies by the lcm of denominators, then divides out the gcd of the
    entries; the zero vector maps to zero.
    """
    return _primitive(_int_row(v))


def format_rational(q) -> str:
    """Render p/q, or bare p for integers (JSON certificate convention)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)
