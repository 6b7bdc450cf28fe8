import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    corpus,
    random_connected_hypergraph,
    ref_orthogonalize_map,
    ref_settle,
)
from ghzcert.errors import DimensionInfeasibleError, RetriesExhaustedError
from ghzcert.gpor import (
    OrthRep,
    _settle,
    find_gpor,
    gpor_candidates,
    orthogonalize_map,
    verify_orthrep,
)
from ghzcert.hypergraph import (
    Graph,
    cycle_hypergraph,
    edge_connectivity,
    graph,
    line_graph,
)
from ghzcert.ratlinalg import inner, scale_to_integers, vector


def random_graph(rng, n):
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.5
    ]
    return graph(n, pairs)


def random_map(rng, n, d):
    return {
        v: vector(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        )
        for v in range(n)
    }


def test_single_sweep_orthogonalizes_every_nonadjacent_pair():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        d = rng.randint(1, 4)
        out = orthogonalize_map(g, random_map(rng, g.n, d))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.adjacent(u, v):
                    assert inner(out[u], out[v]) == 0


def test_sweep_is_idempotent():
    rng = random.Random(32)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        d = rng.randint(1, 3)
        once = orthogonalize_map(g, random_map(rng, g.n, d))
        assert orthogonalize_map(g, once) == once


def test_sweep_respects_custom_ordering():
    g = graph(3, [])  # no edges: all pairs non-adjacent
    f = {v: vector([1, 1]) for v in range(3)}
    out = orthogonalize_map(g, f, ordering=(2, 0, 1))
    # the first processed vertex keeps its input
    assert out[2] == vector([1, 1])
    assert inner(out[0], out[2]) == 0
    assert inner(out[1], out[2]) == 0 and inner(out[1], out[0]) == 0


def test_projection_span_skips_exact_zeros():
    # vertex 1's output collapses to zero; vertex 2 must still end up
    # orthogonal to vertex 0 and ignore the dead vector
    g = graph(3, [])
    f = {
        0: vector([1, 0]),
        1: vector([1, 0]),
        2: vector([1, 1]),
    }
    out = orthogonalize_map(g, f)
    assert out[1] == vector([0, 0])
    assert out[2] == vector([0, 1])


def test_find_gpor_on_corpus():
    for name, h in corpus():
        lam = edge_connectivity(h)
        d = h.l - lam
        rep = find_gpor(line_graph(h), d, seed=0)
        report = verify_orthrep(rep)
        assert report.ok, (name, report)
        assert rep.d == d and len(rep.vectors) == h.l


def test_find_gpor_deterministic():
    g = line_graph(corpus()[1][1])  # C4
    a = find_gpor(g, 2, seed=5)
    b = find_gpor(g, 2, seed=5)
    assert a == b


def test_band_seed_survives_on_paths():
    from ghzcert.hypergraph import path_hypergraph

    for k in (3, 4, 5, 6, 7):
        h = path_hypergraph(k)
        rep = find_gpor(line_graph(h), h.l - 1, seed=0)
        # banded two-entry vectors, already settled
        for j, v in enumerate(rep.vectors):
            assert sum(1 for x in v if x) <= 2
        f = {v: vector(w) for v, w in enumerate(rep.vectors)}
        assert orthogonalize_map(rep.graph, f) == f


def test_zero_dimension_trivial_rep():
    from ghzcert.hypergraph import single_full_edge

    g = line_graph(single_full_edge(4))
    rep = find_gpor(g, 0)
    assert rep.vectors == ((),)
    assert verify_orthrep(rep).ok


def test_negative_dimension_rejected():
    with pytest.raises(DimensionInfeasibleError):
        find_gpor(Graph(2), -1)


def test_retries_exhausted_when_no_rep_exists():
    # two non-adjacent vertices in one dimension would need two nonzero
    # orthogonal scalars
    with pytest.raises(RetriesExhaustedError):
        find_gpor(Graph(2), 1, max_retries=3)


def test_candidates_are_distinct_and_verified():
    g = line_graph(corpus()[1][1])  # C4
    cands = gpor_candidates(g, 2, seed=0, count=4)
    assert 1 <= len(cands) <= 4
    assert len(set(cands)) == len(cands)
    for rep in cands:
        assert verify_orthrep(rep).ok


def test_verify_orthrep_reports_each_defect():
    g = graph(3, [(0, 1)])  # pairs (0,2) and (1,2) must be orthogonal
    bad = OrthRep(g, 2, ((1, 0), (1, 1), (1, 1)))
    report = verify_orthrep(bad)
    assert not report.ok
    assert (0, 2, "1") in report.orthogonality_violations
    assert (1, 2, "2") in report.orthogonality_violations
    dep = OrthRep(g, 2, ((1, 0), (0, 1), (2, 0)))
    report = verify_orthrep(dep)
    assert (0, 2) in report.dependent_subsets
    zeros = OrthRep(graph(2, [(0, 1)]), 2, ((0, 0), (1, 0)))
    report = verify_orthrep(zeros)
    assert report.zero_vectors == (0,)
    wide = OrthRep(g, 2, ((1, 0, 0), (0, 1), (0, 1, 0)))
    report = verify_orthrep(wide)
    assert not report.ok and report.wrong_width == (0, 2)
    for vectors in (((1, 0), (0, 1)), ((1, 0), (0, 1), (0, 1), (1, 1))):
        report = verify_orthrep(OrthRep(g, 2, vectors))
        assert not report.ok and report.vector_count == len(vectors)
    assert verify_orthrep(OrthRep(g, 2, ((1, 0), (1, 1), (0, 1)))).vector_count is None


def test_fixed_point_property_of_verified_reps():
    for name, h in corpus():
        lam = edge_connectivity(h)
        d = h.l - lam
        if d == 0:
            continue
        rep = find_gpor(line_graph(h), d, seed=1)
        f = {v: vector(w) for v, w in enumerate(rep.vectors)}
        assert orthogonalize_map(rep.graph, f) == f, name


def _random_input(rng, n, d):
    """Integer or Fraction vectors, some zero and some repeated, so that
    outputs collapse to zero now and then."""
    as_fraction = rng.random() < 0.5
    f = {}
    for v in range(n):
        kind = rng.random()
        if kind < 0.1:
            w = (0,) * d
        elif kind < 0.35 and f:
            w = f[rng.randrange(v)]
        else:
            w = tuple(rng.randint(-3, 3) for _ in range(d))
        if as_fraction:
            w = tuple(Fraction(x, rng.randint(1, 5)) for x in w)
        f[v] = w
    return f


def test_sweep_matches_fraction_reference():
    rng = random.Random(51)
    collapsed = reordered = 0
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 7))
        d = rng.randint(1, 4)
        f = _random_input(rng, g.n, d)
        ordering = None
        if rng.random() < 0.5:
            ordering = tuple(rng.sample(range(g.n), g.n))
            reordered += 1
        out = orthogonalize_map(g, f, ordering)
        want = ref_orthogonalize_map(g, f, ordering)
        assert out == want and list(out) == list(want)
        collapsed += sum(not any(w) and any(f[v]) for v, w in out.items())
    assert collapsed > 50 and reordered > 200


def test_settle_matches_fraction_reference():
    rng = random.Random(52)
    outcomes = set()
    for trial in range(300):
        if trial % 2:
            g = random_graph(rng, rng.randint(2, 7))
            d = rng.randint(1, 4)
        else:
            h = random_connected_hypergraph(rng, kmax=6, emax=7, emin=3)
            g, d = line_graph(h), h.l - edge_connectivity(h)
            if d == 0:
                continue
        bound = rng.randint(1, 4)
        f = {v: tuple(rng.randint(-bound, bound) for _ in range(d)) for v in range(g.n)}
        sweeps = rng.choice((1, 2, 8))
        got, want = _settle(g, f, sweeps), ref_settle(g, f, sweeps)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == {v: scale_to_integers(w) for v, w in want.items()}
        outcomes.add(want is None)
    assert outcomes == {True, False}


# -- golden digests of the search's output, captured before the integer sweep


def _golden_instances():
    out = dict(corpus())
    out["C6"] = cycle_hypergraph(6)
    rng = random.Random(7)
    for idx in range(8):
        out[f"random{idx}"] = random_connected_hypergraph(rng, kmax=6, emax=8, emin=4)
    return out


GOLDEN_CALLS = {
    "candidates_bound3": lambda lg, d, s: gpor_candidates(
        lg, d, seed=s, bound=3, max_retries=16
    ),
    "candidates": lambda lg, d, s: gpor_candidates(lg, d, seed=s),
    "find_gpor": lambda lg, d, s: [find_gpor(lg, d, seed=s)],
}

GPOR_GOLDEN = {
    ("K3", "candidates_bound3"): "63fddca7d446a01b325af7c6d1b6975d39ef27dfa81accebf90de891b56d8474",
    ("K3", "candidates"): "4cf3be81ef1e60645c7be879d384a7121f02373875ea8bea386f15bf20c0da8d",
    ("K3", "find_gpor"): "68a6f69dcd192b723c72b904e9bec0aa9951dd6e19940b6204a4ed038ce29718",
    ("C4", "candidates_bound3"): "2d1cbaff4a52fceed8546496f80657520eae39fd3f6887b0f0dd8b0375430f2b",
    ("C4", "candidates"): "d5084ce73e6419bd4688c91c0c30b74a733006cc6b96ce99cdc46f139b0caff9",
    ("C4", "find_gpor"): "30ba3447ba72e4a05cd5df3e1aaafb585bac4983df0445772f427d6db24d56ce",
    ("C5", "candidates_bound3"): "b0d1c18d152151f97d697002061573720155389cb84a5dc52268df508378640a",
    ("C5", "candidates"): "2939341618c1598822e8e237ffe3fff6ad5f623697bbf1fef15653839759b595",
    ("C5", "find_gpor"): "0eff5ef6ff95323396e01a8244122af5a5766d804a8ed175fd90dc8d4100776d",
    ("K4^2", "candidates_bound3"): "e5b498a0b002a0a1bffef3198c01354d9a03f018f73373de9f64064ffda86a74",
    ("K4^2", "candidates"): "c9c83c0425b33544f0f7ab1beb53feacaf5802ff97a3cb2aa469ecb38dab3c54",
    ("K4^2", "find_gpor"): "0a0f9face57cd41272baab9a2de4bc4aee5e36ae89ef37af24a3fbd82bc8d189",
    ("K4^3", "candidates_bound3"): "00ee8ce5a35be317d81da0544b8f3b542fb549a887658b1c94f889c7226fefca",
    ("K4^3", "candidates"): "4595eceaf337566a7ccca106b282e2b729104a2e98763e969b8f43e290c79ae3",
    ("K4^3", "find_gpor"): "d75e12caceb9aaefe06f2184bce076ea516373bdc614b59d36f463f0765faf3c",
    ("path3", "candidates_bound3"): "484e63eac365d51eb00e45288a5aebc870ed404705fbfe5f119343b3eed19c8f",
    ("path3", "candidates"): "bb55b48a1cbbf960dce62cbf7e7ffc9caefc61ae6115dde8f1f52338ec73c4cd",
    ("path3", "find_gpor"): "a8a43cfabe6931f096ea09eb2d84c03e685fe91fc04bd5ea8a425f3026ab3f78",
    ("path4", "candidates_bound3"): "46e38cf850c7ff47cb40e190938ba4a617eca1fcb463c49b20c2c950dbff92de",
    ("path4", "candidates"): "35a72f7f21392761be207d46b9e6942f981bf6ae10fb3564f3e3366f9dfaea24",
    ("path4", "find_gpor"): "c17e0b6292c23dc268db53eb16ea36590937049874a89e74038d065bff101f21",
    ("path5", "candidates_bound3"): "ece2e741f1432dd233a3416d4df1a1dd3a5851f5fde44d637e068a042942dc74",
    ("path5", "candidates"): "d46caa41bac675fa2869467c292b6430eb60cbd0ed57cd6ba8f679e5f47908fb",
    ("path5", "find_gpor"): "8872c57b7739e6b78ad11f0e6fca47f393c339b8cb66aeed633b7dc124a234a9",
    ("full3", "candidates_bound3"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("full3", "candidates"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("full3", "find_gpor"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("C6", "candidates_bound3"): "477c07f5d004c2f361ff43469614a0b7a740a4d80208d7378e9790ea2ba4451b",
    ("C6", "candidates"): "21d8d81956aa09a9f992d1aebd048e8f85a4d46fb65cc44a4cc0df2e5488ae1a",
    ("C6", "find_gpor"): "696ea2cbda398dd51554e5e205fa8111a01caf16bcb0b0cf33bf98e584514c09",
    ("random0", "candidates_bound3"): "21bb4364824c1e95450a11029d1133e886fe65d5ef8178fff4a6a50f8b8860ab",
    ("random0", "candidates"): "29cea188b400b6e96711906e87bcbc6fd82e20277af0bd6651670c6fa7ffa884",
    ("random0", "find_gpor"): "6b8c1b12a7546e7828a65302a44870138d87273135ce60d3493b04dd8c82448c",
    ("random1", "candidates_bound3"): "909fc8b57f639bb6b8dce3afb32867215160e1d2ead3cc02e81b2d5f2ba71095",
    ("random1", "candidates"): "5a87be3b19f0c7cd6746760726f22d8eb5d6e5fcdd8ea46a60bb38d23400d092",
    ("random1", "find_gpor"): "20b8fc3c433c286823439a837082b5b89da37d31b5c0dae9353bff323f0639cf",
    ("random2", "candidates_bound3"): "4dbb6eeaab9e9bba66a7319c979a521cf1c6d6a56cc67e4e520eae2b4b49302f",
    ("random2", "candidates"): "51740ae89e6fb9ebcdc9d46f0f9363a57c408df5e2c9548f541415e01f95ecc2",
    ("random2", "find_gpor"): "657c1d68191c3fa2499d3e789027b776ac1d7270c20331b3770b1df9f45e2cd0",
    ("random3", "candidates_bound3"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random3", "candidates"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random3", "find_gpor"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random4", "candidates_bound3"): "7744e5e81be5b5267a98c4bfd79547d5260715c8a351108cc83116b756592a9d",
    ("random4", "candidates"): "9259c84717fae4d1581720564b731dd5014932132df9f56bd522675df7200b13",
    ("random4", "find_gpor"): "e53720a7beb572be1c8cd20a73dc28a664fdc7de16edda549803b8af401c589a",
    ("random5", "candidates_bound3"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random5", "candidates"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random5", "find_gpor"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random6", "candidates_bound3"): "8d462aa6fca8930e684e04c2a6af797cbbd1555c66b761dab74693ade2550ead",
    ("random6", "candidates"): "b9ffc00b384c7406aa1f3406e2ce71488787bdc56fa30d2d24566492e9e3e9f5",
    ("random6", "find_gpor"): "5941daebcccd6fd5f20df945ae541c926d1977f9d60581b5db83843785957860",
    ("random7", "candidates_bound3"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random7", "candidates"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random7", "find_gpor"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
}


@pytest.mark.parametrize("name, call", sorted(GPOR_GOLDEN))
def test_gpor_search_golden(name, call):
    h = _golden_instances()[name]
    lg, d = line_graph(h), h.l - edge_connectivity(h)
    runs = []
    for seed in range(5):
        try:
            reps = GOLDEN_CALLS[call](lg, d, seed)
        except RetriesExhaustedError:
            runs.append("RetriesExhausted")
        else:
            runs.append([[list(v) for v in rep.vectors] for rep in reps])
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == GPOR_GOLDEN[name, call]
