import random
from fractions import Fraction

import pytest

from conftest import ref_project_onto_span, ref_rank
from ghzcert.errors import DimMismatchError, TooLargeError
from ghzcert.ratlinalg import (
    format_rational,
    inner,
    is_general_position,
    parse_rational,
    project_onto_span,
    rank,
    scale_to_integers,
    vec_sub,
    vector,
)


def test_inner_examples():
    assert inner(vector([1, 0]), vector([0, 1])) == 0
    assert inner(vector([1, 1, 1]), vector([1, 1, 1])) == 3
    assert inner(vector(["1/2", "1/3"]), vector([2, 3])) == 2


def test_inner_dim_mismatch():
    with pytest.raises(DimMismatchError):
        inner(vector([1, 2]), vector([1, 2, 3]))


def test_rank_examples():
    eye = [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])]
    assert rank(eye) == 3
    assert rank([vector([0, 0]), vector([0, 0])]) == 0
    assert rank([vector([1, 2]), vector([2, 4])]) == 1
    assert rank([]) == 0


def test_rank_invariance_under_row_ops():
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            vector([rng.randint(-5, 5) for _ in range(4)]) for _ in range(3)
        ]
        r = rank(rows)
        swapped = [rows[1], rows[0], rows[2]]
        assert rank(swapped) == r
        scaled = [
            tuple(Fraction(3, 7) * x for x in rows[0]),
            rows[1],
            tuple(Fraction(-2) * x for x in rows[2]),
        ]
        assert rank(scaled) == r


def _random_rows(rng, as_fraction):
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
        if as_fraction:
            row = [Fraction(x, rng.randint(1, 6)) for x in row]
        rows.append(tuple(row))
    return rows


def test_rank_matches_fraction_reference():
    rng = random.Random(41)
    for trial in range(3000):
        rows = _random_rows(rng, as_fraction=trial % 2 == 1)
        assert rank(rows) == ref_rank(rows), rows


def test_rank_accepts_mixed_and_string_entries():
    assert rank([(1, "1/2"), (Fraction(2), 1)]) == 1
    assert rank([(Fraction(1, 3), 0), (0, Fraction(-2, 7))]) == 2
    with pytest.raises(DimMismatchError):
        rank([(1, 2), (1,)])


def test_project_matches_fraction_reference():
    rng = random.Random(43)
    for trial in range(1500):
        rows = _random_rows(rng, as_fraction=trial % 2 == 1)
        if not rows:
            continue
        x, basis = rows[0], rows[1:]
        assert project_onto_span(basis, x) == ref_project_onto_span(basis, x)


def test_project_examples():
    assert project_onto_span([vector([1, 0])], vector([3, 5])) == vector([3, 0])
    assert project_onto_span([], vector([3, 5])) == vector([0, 0])
    assert project_onto_span([vector([1, 1])], vector([1, 0])) == vector(
        ["1/2", "1/2"]
    )


def test_project_idempotent_and_residual_orthogonal():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randint(1, 4)
        basis = [
            vector([rng.randint(-4, 4) for _ in range(d)])
            for _ in range(rng.randint(0, 3))
        ]
        x = vector([rng.randint(-4, 4) for _ in range(d)])
        p = project_onto_span(basis, x)
        assert project_onto_span(basis, p) == p
        residual = vec_sub(x, p)
        for b in basis:
            assert inner(residual, b) == 0


def test_project_handles_zero_basis_vectors():
    basis = [vector([0, 0]), vector([2, 0])]
    assert project_onto_span(basis, vector([3, 4])) == vector([3, 0])


def test_project_dim_mismatch():
    with pytest.raises(DimMismatchError):
        project_onto_span([vector([1, 0])], vector([1, 0, 0]))


def test_general_position_examples():
    good = [vector([1, 0]), vector([0, 1]), vector([1, 1]), vector([1, -1])]
    assert is_general_position(good, 2)
    assert not is_general_position([vector([1, 0]), vector([2, 0])], 2)
    assert is_general_position([vector([1])], 1)
    assert is_general_position([], 3)


def test_general_position_scaling_invariance():
    vs = [vector([1, 2]), vector([3, 1]), vector([1, -1])]
    scaled = [
        tuple(Fraction(5, 3) * x for x in vs[0]),
        tuple(Fraction(-7) * x for x in vs[1]),
        vs[2],
    ]
    assert is_general_position(vs, 2) == is_general_position(scaled, 2)


def test_general_position_subset_guard():
    # C(50, 25) is far beyond the enumeration cap
    vs = [vector([1] * 25) for _ in range(50)]
    with pytest.raises(TooLargeError):
        is_general_position(vs, 25)


def test_scale_to_integers_examples():
    assert scale_to_integers(vector(["1/2", "1/3"])) == vector([3, 2])
    assert scale_to_integers(vector([2, 4])) == vector([1, 2])
    assert scale_to_integers(vector([0, 0])) == vector([0, 0])
    assert scale_to_integers(()) == ()


def test_scale_to_integers_keeps_direction_and_orthogonality():
    rng = random.Random(23)
    for _ in range(20):
        u = vector(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
        )
        w = scale_to_integers(u)
        if any(u):
            # w is a positive multiple of u
            ratios = {Fraction(a) / b for a, b in zip(w, u) if b != 0}
            assert len(ratios) == 1
            assert ratios.pop() > 0
        v = vector(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
        )
        assert (inner(u, v) == 0) == (
            inner(scale_to_integers(u), scale_to_integers(v)) == 0
        )


def test_rational_string_round_trip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == "-2"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-4") == Fraction(-4)
    for q in (Fraction(0), Fraction(22, 7), Fraction(-9, 5)):
        assert parse_rational(format_rational(q)) == q
