import random
from collections import Counter
from itertools import product
from math import prod
from operator import mul

import pytest

from conftest import (
    flattening_rank,
    random_connected_hypergraph,
    ref_apply_local_diagonal,
    ref_check_ghz_structure,
    ref_ghz_state,
    ref_leading_term,
    sparse_tensor,
)
from ghzcert.errors import (
    BadLevelError,
    GhzStructureError,
    NegativeExponentError,
    NonScalarCoefficientsError,
    TooLargeError,
)
from ghzcert.hypergraph import (
    cycle_hypergraph,
    edge_connectivity,
    hypergraph,
    path_hypergraph,
    single_full_edge,
)
from ghzcert.tensor import (
    SparseTensor,
    apply_local_diagonal,
    check_ghz_structure,
    dump,
    ghz_state,
    leading_term,
)


# -- ghz_state ---------------------------------------------------------------


def test_ghz_single_edge():
    t = ghz_state(single_full_edge(4), 2)
    assert len(t.entries) == 2
    keys = sorted(t.entries)
    assert keys[0] == ((0,),) * 4 and keys[1] == ((1,),) * 4


def test_ghz_triangle_n2():
    t = ghz_state(cycle_hypergraph(3), 2)
    assert len(t.entries) == 8
    # every site carries one component per incident edge
    assert all(len(a[0]) == 2 for a in t.alphabets)
    # shared edge indices agree across the two sites of each edge
    h = cycle_hypergraph(3)
    incident = [h.incident(j) for j in (1, 2, 3)]
    for key in t.entries:
        by_edge = {}
        for site, inc in enumerate(incident):
            for pos, e in enumerate(inc):
                by_edge.setdefault(e, set()).add(key[site][pos])
        assert all(len(vals) == 1 for vals in by_edge.values())


def test_ghz_path_count_and_levels():
    assert len(ghz_state(path_hypergraph(3), 3).entries) == 9
    with pytest.raises(BadLevelError):
        ghz_state(path_hypergraph(3), 1)


def test_ghz_isolated_vertex_gets_empty_label():
    h = hypergraph(3, [{1, 2}])  # vertex 3 touches nothing
    t = ghz_state(h, 2)
    assert t.alphabets[2] == ((),)
    assert all(key[2] == () for key in t.entries)


def test_tensors_come_only_from_the_degeneration_operations():
    # ghz_state, apply_local_diagonal and leading_term build every tensor
    al = ((0,), (1,))
    with pytest.raises(TypeError):
        SparseTensor(2, (al, al), {((0,), (1,)): 0})


def _same(t, u) -> bool:
    """t and u have the same alphabets and the same entries."""
    return (t.alphabets, t.entries) == (u.alphabets, u.entries)


# -- local diagonals and leading terms ---------------------------------------


def test_zero_exponents_are_identity():
    t = ghz_state(cycle_hypergraph(3), 2)
    same = apply_local_diagonal(t, 1, lambda lab: 0)
    assert _same(same, t)
    assert _same(leading_term(same), t)


def test_site_grading():
    t = ghz_state(single_full_edge(2), 2)
    graded = apply_local_diagonal(t, 1, lambda lab: lab[0])
    exps = {key[0][0]: m for key, m in graded.entries.items()}
    assert exps == {0: 0, 1: 1}
    assert all(type(m) is int for m in graded.entries.values())


def test_diagonals_commute_across_sites():
    rng = random.Random(3)
    for _ in range(5):
        h = random_connected_hypergraph(rng, kmax=4, emax=3)
        t = ghz_state(h, 2)
        fns = {
            j: (lambda lab, j=j: sum(lab) * j + len(lab))
            for j in range(1, h.k + 1)
        }
        one_way = t
        for j in range(1, h.k + 1):
            one_way = apply_local_diagonal(one_way, j, fns[j])
        other = t
        for j in range(h.k, 0, -1):
            other = apply_local_diagonal(other, j, fns[j])
        assert _same(one_way, other)


def test_strassen_exponent_totals():
    # K_3 with the scalar representation and g = 2 at n = 2: the local
    # shares below sum to (i1 + i2 + i3 - 2)^2 on every entry
    g = 2
    h = cycle_hypergraph(3)
    t = ghz_state(h, 2)
    t = apply_local_diagonal(t, 1, lambda lab: lab[0] ** 2 + 2 * lab[0] * lab[1] - 2 * g * lab[0])
    t = apply_local_diagonal(t, 2, lambda lab: lab[1] ** 2 + 2 * lab[0] * lab[1] - 2 * g * lab[1] + g * g)
    t = apply_local_diagonal(t, 3, lambda lab: lab[1] ** 2 + 2 * lab[0] * lab[1] - 2 * g * lab[1])
    for key, m in t.entries.items():
        i1, i3 = key[0]
        i2 = key[1][1]
        assert m == (i1 + i2 + i3 - g) ** 2
    survivors = leading_term(t)
    assert len(survivors.entries) == 3  # triples of 0/1 summing to 2
    assert check_ghz_structure(survivors) == 3


def test_leading_term_drops_positive_orders():
    t = ghz_state(single_full_edge(3), 2)
    graded = apply_local_diagonal(t, 1, lambda lab: 4 * lab[0])
    lt = leading_term(graded)
    assert len(lt.entries) == 1
    assert list(lt.entries) == [((0,), (0,), (0,))]


def test_leading_term_rejects_negative_exponents():
    t = ghz_state(single_full_edge(3), 2)
    bad = apply_local_diagonal(t, 2, lambda lab: lab[0] - 1)
    with pytest.raises(NegativeExponentError) as err:
        leading_term(bad)
    assert err.value.code == "NegativeExponent"
    assert "-1" in str(err.value)


@pytest.mark.parametrize("shift", [-1000, 1000])
def test_leading_term_of_exponents_far_from_0(shift):
    # exponents shift and shift + 1 fit one-byte slots, but 2^7 + shift
    # does not: the slots must never be offset by it
    t = ghz_state(single_full_edge(3), 2)
    t = apply_local_diagonal(t, 1, lambda lab: shift + lab[0])
    if shift > 0:
        assert leading_term(t).entries == {}
        return
    with pytest.raises(NegativeExponentError) as err:
        leading_term(t)
    assert (err.value.key, err.value.exponent) == (((0,), (0,), (0,)), -1000)


# -- flattening ranks --------------------------------------------------------


def test_flattening_examples():
    g2 = ghz_state(single_full_edge(3), 2)
    for side in ({1}, {2}, {3}, {1, 2}, {2, 3}):
        assert flattening_rank(g2, side) == 2
    k3 = ghz_state(cycle_hypergraph(3), 2)
    assert flattening_rank(k3, {1}) == 4
    prod_state = sparse_tensor(2, (((0,), (1,)), ((0,), (1,))), {((0,), (0,)): 0})
    assert flattening_rank(prod_state, {1}) == 1


def test_flattening_rank_counts_crossings():
    rng = random.Random(17)
    for _ in range(4):
        h = random_connected_hypergraph(rng, kmax=4, emax=4)
        n = rng.choice([2, 3])
        t = ghz_state(h, n)
        for mask in range(1, 2 ** (h.k - 1)):
            side = {1} | {v + 2 for v in range(h.k - 1) if mask >> v & 1}
            if len(side) == h.k:
                continue
            crossing = h.crossing(frozenset(side))
            assert flattening_rank(t, side) == n ** len(crossing)


def test_min_flattening_recovers_connectivity():
    rng = random.Random(18)
    for _ in range(3):
        h = random_connected_hypergraph(rng, kmax=4, emax=4)
        n = 2
        t = ghz_state(h, n)
        ranks = []
        for mask in range(0, 2 ** (h.k - 1) - 1):
            side = {1} | {v + 2 for v in range(h.k - 1) if mask >> v & 1}
            ranks.append(flattening_rank(t, side))
        lam = edge_connectivity(h)
        assert min(ranks) == n**lam


def test_flattening_guards():
    t = ghz_state(cycle_hypergraph(3), 2)
    graded = apply_local_diagonal(t, 1, lambda lab: lab[0])
    with pytest.raises(NonScalarCoefficientsError):
        flattening_rank(graded, {1})
    with pytest.raises(ValueError):
        flattening_rank(t, set())
    with pytest.raises(ValueError):
        flattening_rank(t, {1, 2, 3})
    # 13 parallel edges make a 2^13-label side alphabet
    wide = ghz_state(hypergraph(2, [{1, 2}] * 13), 2)
    with pytest.raises(TooLargeError):
        flattening_rank(wide, {1})


# -- GHZ recognition ---------------------------------------------------------


def test_check_ghz_structure_on_products():
    for n in (2, 3, 5):
        t = ghz_state(single_full_edge(4), n)
        assert check_ghz_structure(t) == n


def test_w_state_is_not_ghz():
    al = ((0,), (1,))
    w = sparse_tensor(
        3,
        (al, al, al),
        {
            ((1,), (0,), (0,)): 0,
            ((0,), (1,), (0,)): 0,
            ((0,), (0,), (1,)): 0,
        },
    )
    with pytest.raises(GhzStructureError) as err:
        check_ghz_structure(w)
    assert err.value.code == "NotGhz"
    assert err.value.vertex == 1 and err.value.label == (0,)


def test_a_label_repeated_after_the_whole_alphabet_is_caught():
    # vertex 1 sees the last two coordinates of the grid, so its four
    # labels at n = 2 all occur before its first repeat, at entry 5
    t = ghz_state(hypergraph(3, [{2, 3}, {1, 2}, {1, 3}]), 2)
    with pytest.raises(GhzStructureError) as err:
        check_ghz_structure(t)
    assert err.value.vertex == 1 and err.value.label == (0, 0)


def test_check_ghz_rejects_epsilon_coefficients():
    t = apply_local_diagonal(ghz_state(single_full_edge(2), 2), 1, lambda lab: lab[0])
    with pytest.raises(NonScalarCoefficientsError):
        check_ghz_structure(t)


def test_full_grid_state_is_not_ghz_for_multiple_edges():
    # two edges at n=2 realize each local label twice somewhere
    t = ghz_state(path_hypergraph(3), 2)
    with pytest.raises(GhzStructureError):
        check_ghz_structure(t)


def test_dump_format():
    t = ghz_state(single_full_edge(2), 2)
    text = dump(t)
    assert text.splitlines() == [
        "((0,), (0,)) : 1",
        "((1,), (1,)) : 1",
    ]
    graded = apply_local_diagonal(t, 1, lambda lab: 2 * lab[0])
    assert "((1,), (1,)) : 1*e^2" in dump(graded)


# -- the column layout against the dict reference ----------------------------

TENSOR_ERRORS = (NegativeExponentError, NonScalarCoefficientsError, GhzStructureError)


def _agree(fn, ref_fn, t, ref):
    """fn(t) and ref_fn(ref) return alike or raise the same error with the
    same message.  Returns (result, reference result) or the error code."""
    try:
        want = ref_fn(ref)
    except TENSOR_ERRORS as exc:
        with pytest.raises(TENSOR_ERRORS) as got:
            fn(t)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return exc.code
    return fn(t), want


def _site_function(rng, alphabet):
    """Integer values on one site's labels: a square or a signed linear form
    in the label digits, or a table of small values, some negative."""
    a = [rng.randint(-2, 2) for _ in alphabet[0]]
    b = rng.randint(0, 2)
    kind = rng.choice(("square", "linear", "table"))
    if kind == "square":
        return lambda label: (sum(map(mul, a, label)) - b) ** 2
    if kind == "linear":
        return lambda label: sum(map(mul, a, label)) - b
    return {label: rng.choice((0, 0, 0, 1, 2, -1)) for label in alphabet}.__getitem__


def test_columns_match_the_dict_reference():
    rng = random.Random(2011)
    seen = Counter()

    def ghz_terms(t, ref):
        r = _agree(check_ghz_structure, ref_check_ghz_structure, t, ref)
        if isinstance(r, tuple):
            assert r[0] == r[1]
            r = "ghz" if r[0] > 1 else "trivial"
        seen[r] += 1

    for _ in range(40):
        h = random_connected_hypergraph(rng, kmax=5, emax=6)
        n = rng.choice((2, 3))
        t, ref = ghz_state(h, n), ref_ghz_state(h, n)
        assert t.alphabets == ref.alphabets
        assert list(t.entries.items()) == list(ref.entries.items())
        shuffled = list(ref.entries.items())
        rng.shuffle(shuffled)
        built = sparse_tensor(h.k, ref.alphabets, dict(shuffled))
        assert list(built.entries.items()) == shuffled
        assert _same(built, t)
        for j in rng.sample(range(1, h.k + 1), h.k):
            fn = _site_function(rng, t.alphabets[j - 1])
            t = apply_local_diagonal(t, j, fn)
            ref = ref_apply_local_diagonal(ref, j, fn)
            assert list(t.entries.items()) == list(ref.entries.items())
            ghz_terms(t, ref)
            lead = _agree(leading_term, ref_leading_term, t, ref)
            if isinstance(lead, str):
                seen[lead] += 1
            else:
                assert list(lead[0].entries.items()) == list(lead[1].entries.items())
                ghz_terms(*lead)
    assert {"NegativeExponent", "NonScalarCoefficients", "NotGhz", "ghz"} <= set(seen)


def test_tensors_with_code_columns_match_the_dict_reference():
    # a leading term, and a tensor built from shuffled entries, keep one
    # code column per site: diagonals, leading terms and errors on them
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(40):
        h = random_connected_hypergraph(rng, kmax=5, emax=5)
        n = rng.choice((2, 3))
        ref = ref_ghz_state(h, n)
        shuffled = list(ref.entries.items())
        rng.shuffle(shuffled)
        starts = [sparse_tensor(h.k, ref.alphabets, dict(shuffled))]
        ref_starts = [ref._replace(entries=dict(shuffled))]
        fn = _site_function(rng, ref.alphabets[0])
        lead = _agree(
            leading_term, ref_leading_term,
            apply_local_diagonal(ghz_state(h, n), 1, fn), ref_apply_local_diagonal(ref, 1, fn),
        )
        if isinstance(lead, tuple):
            starts.append(lead[0])
            ref_starts.append(lead[1])
        for t, r in zip(starts, ref_starts):
            for j in rng.sample(range(1, h.k + 1), h.k):
                fn = _site_function(rng, t.alphabets[j - 1])
                t = apply_local_diagonal(t, j, fn)
                r = ref_apply_local_diagonal(r, j, fn)
                assert list(t.entries.items()) == list(r.entries.items())
                got = _agree(check_ghz_structure, ref_check_ghz_structure, t, r)
                seen[got if isinstance(got, str) else "ghz"] += 1
                got = _agree(leading_term, ref_leading_term, t, r)
                if isinstance(got, str):
                    seen[got] += 1
                else:
                    assert list(got[0].entries.items()) == list(got[1].entries.items())
    assert {"NegativeExponent", "NonScalarCoefficients"} <= set(seen)
