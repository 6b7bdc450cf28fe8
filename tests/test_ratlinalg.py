import random
from fractions import Fraction
from itertools import combinations

import pytest

import ghzcert.gpor
from conftest import ref_primitive, ref_project_onto_span, ref_rank
from ghzcert.errors import DimMismatchError, TooLargeError
from ghzcert.gpor import OrthRep, verify_orthrep
from ghzcert.hypergraph import graph
from ghzcert.ratlinalg import _kernel, _orthogonal_basis, _primitive, _residual, rank


def _residual_of(basis, x):
    """The integer residual direction of x off span(basis), the way the
    sweep takes it."""
    return _residual(_orthogonal_basis(basis), x)


def _project(basis, x):
    """x's projection onto span(basis): x minus its exact component along
    the integer residual direction, which is orthogonal to the span."""
    r = _residual_of(basis, x)
    norm = sum(a * a for a in r)
    c = Fraction(sum(a * b for a, b in zip(r, x)), norm) if norm else 0
    return tuple(a - c * b for a, b in zip(x, r))


def test_rank_examples():
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rank(eye) == 3
    assert rank([(0, 0), (0, 0)]) == 0
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0


def test_rank_invariance_under_row_ops():
    rng = random.Random(11)
    for _ in range(20):
        rows = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3)]
        r = rank(rows)
        swapped = [rows[1], rows[0], rows[2]]
        assert rank(swapped) == r
        scaled = [
            tuple(3 * x for x in rows[0]),
            rows[1],
            tuple(-2 * x for x in rows[2]),
        ]
        assert rank(scaled) == r


def _random_rows(rng):
    """Rows with zero rows, repeated rows and sums of earlier rows mixed in."""
    ncols = rng.randint(0, 5)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * ncols
        elif kind < 0.45 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [rng.randint(-4, 4) for _ in range(ncols)]
        rows.append(tuple(row))
    return rows


def test_rank_matches_fraction_reference():
    rng = random.Random(41)
    for _ in range(3000):
        rows = _random_rows(rng)
        assert rank(rows) == ref_rank(rows), rows


def test_rank_refuses_non_int_entries():
    # floor division on Fractions would give a wrong rank without a word
    for row in ((1, Fraction(1, 2)), (Fraction(2), 1), (1, "1/2"), (1, 0.5)):
        with pytest.raises(TypeError):
            rank([(1, 1), row])
    with pytest.raises(DimMismatchError):
        rank([(1, 2), (1,)])


def test_project_matches_fraction_reference():
    rng = random.Random(43)
    for _ in range(1500):
        rows = _random_rows(rng)
        if not rows:
            continue
        x, basis = rows[0], rows[1:]
        p = ref_project_onto_span(basis, x)
        assert _project(basis, x) == p
        want = ref_primitive([a - b for a, b in zip(x, p)])
        assert _primitive(_residual_of(basis, x)) == want


def test_project_examples():
    assert _project([(1, 0)], (3, 5)) == (3, 0)
    assert _residual_of([(1, 0)], (3, 5)) == (0, 1)
    assert _project([], (3, 5)) == (0, 0)
    assert _project([(1, 1)], (1, 0)) == (Fraction(1, 2), Fraction(1, 2))
    assert _residual_of([(1, 1)], (1, 0)) == (1, -1)


def test_project_idempotent_and_residual_orthogonal():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randint(1, 4)
        basis = [
            tuple(rng.randint(-4, 4) for _ in range(d))
            for _ in range(rng.randint(0, 3))
        ]
        x = tuple(rng.randint(-4, 4) for _ in range(d))
        p = _project(basis, x)
        # a vector in the span has no residual
        assert not any(_residual_of(basis, ref_primitive(p)))
        r = _residual_of(basis, x)
        for b in basis:
            assert sum(a * c for a, c in zip(r, b)) == 0


def test_project_handles_zero_basis_vectors():
    basis = [(0, 0), (2, 0)]
    assert _project(basis, (3, 4)) == (3, 0)
    assert _orthogonal_basis(basis) == [((2, 0), 4)]


def test_kernel_rows_are_the_dual_matroid():
    # C with columns c_0..c_(l-1) and rank r: an r-subset B of the columns
    # is a basis exactly when the kernel rows off B are independent, and
    # the kernel has l - r columns
    rng = random.Random(42)
    for _ in range(400):
        d, l = rng.randint(1, 4), rng.randint(1, 6)
        span = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(0, d))]
        columns = []
        for _ in range(l):
            coef = [rng.randint(-3, 3) for _ in span]
            columns.append(tuple(sum(c * b[t] for c, b in zip(coef, span)) for t in range(d)))
        r, rows = _kernel(columns)
        assert r == ref_rank(columns)
        assert len(rows) == l and all(len(row) == l - r for row in rows)
        for basis in combinations(range(l), r):
            off = [rows[i] for i in range(l) if i not in basis]
            assert (ref_rank([columns[i] for i in basis]) == r) == (
                ref_rank(off) == l - r
            ), (columns, basis)


# -- general position, decided by one walk over the smaller side ------------


def _complete(n):
    """The complete graph: no pair has to be orthogonal."""
    return graph(n, combinations(range(n), 2))


def _in_general_position(vectors, d):
    return not verify_orthrep(
        OrthRep(_complete(len(vectors)), d, tuple(vectors))
    ).dependent_subsets


def test_general_position_examples():
    good = [(1, 0), (0, 1), (1, 1), (1, -1)]
    assert _in_general_position(good, 2)
    assert not _in_general_position([(1, 0), (2, 0)], 2)
    assert _in_general_position([(1,)], 1)
    assert _in_general_position([], 3)


def test_general_position_scaling_invariance():
    vs = [(1, 2), (3, 1), (1, -1)]
    scaled = [tuple(5 * x for x in vs[0]), tuple(-7 * x for x in vs[1]), vs[2]]
    assert _in_general_position(vs, 2) == _in_general_position(scaled, 2)
    collinear = [(1, 2), (-3, -6), (1, -1)]
    assert not _in_general_position(collinear, 2)


def test_general_position_subset_guard(monkeypatch):
    # C(50, 25) and C(60, 40) are far beyond the enumeration cap; the guard
    # fires before the walk starts or the kernel is eliminated, on the side
    # of c (l - d >= d) as on the side of its kernel (l - d < d)
    def no_work(*args):
        raise AssertionError("subset work done before the subset guard")

    monkeypatch.setattr(ghzcert.gpor, "_dependent", no_work)
    monkeypatch.setattr(ghzcert.gpor, "_kernel", no_work)
    for l, d in ((50, 25), (60, 40)):
        rep = OrthRep(_complete(l), d, tuple((1,) * d for _ in range(l)))
        with pytest.raises(TooLargeError):
            verify_orthrep(rep)
    # under the cap the same patches are reached, on both sides
    for l, d in ((4, 2), (4, 3)):
        rep = OrthRep(_complete(l), d, tuple((1,) * d for _ in range(l)))
        with pytest.raises(AssertionError, match="before the subset guard"):
            verify_orthrep(rep)
