import hashlib
import importlib.util
import json
import random
import sys
from itertools import chain, combinations
from pathlib import Path

import pytest

import ghzcert.gpor

from conftest import (
    corpus,
    random_connected_hypergraph,
    ref_dependent_subsets,
    ref_orthogonalize_map,
    ref_primitive,
    ref_rank,
    ref_settle,
)
from ghzcert.errors import (
    DimensionInfeasibleError,
    RetriesExhaustedError,
    TooLargeError,
)
from ghzcert.gpor import (
    OrthRep,
    OrthRepReport,
    _band_vectors,
    _draws,
    _plan,
    _sweep,
    _verified,
    find_gpor,
    gpor_candidates,
    verify_orthrep,
)
from ghzcert.hypergraph import (
    Graph,
    Hypergraph,
    cycle_hypergraph,
    edge_connectivity,
    graph,
    line_graph,
)
from ghzcert.ratlinalg import _primitive


def random_graph(rng, n):
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.5
    ]
    return graph(n, pairs)


def random_map(rng, n, d):
    return {v: tuple(rng.randint(-9, 9) for _ in range(d)) for v in range(n)}


def sweep(g, f, ordering=None):
    """One integer sweep over the primitive directions of the int map f:
    the outputs."""
    if ordering is None:
        ordering = tuple(range(g.n))
    return _sweep(_plan(g, ordering), {v: _primitive(f[v]) for v in ordering})


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_single_sweep_orthogonalizes_every_nonadjacent_pair():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        d = rng.randint(1, 4)
        out = sweep(g, random_map(rng, g.n, d))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.adjacent(u, v):
                    assert dot(out[u], out[v]) == 0


def test_sweep_is_idempotent():
    rng = random.Random(32)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        d = rng.randint(1, 3)
        once = sweep(g, random_map(rng, g.n, d))
        assert sweep(g, once) == once


def test_sweep_respects_custom_ordering():
    g = graph(3, [])  # no edges: all pairs non-adjacent
    f = {0: (1, 0, 0), 1: (1, 1, 0), 2: (1, 1, 1)}
    out = sweep(g, f, ordering=(2, 0, 1))
    # the first processed vertex keeps its input; the rest follow in order
    assert out == {2: (1, 1, 1), 0: (2, -1, -1), 1: (0, 1, -1)}
    assert list(out) == [2, 0, 1]
    assert sweep(g, f) == {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}


def test_projection_span_skips_exact_zeros():
    # vertex 1's output collapses to zero; vertex 2 must still end up
    # orthogonal to vertex 0 and ignore the dead vector
    g = graph(3, [])
    out = sweep(g, {0: (1, 0), 1: (1, 0), 2: (1, 1)})
    assert out[1] == (0, 0)
    assert out[2] == (0, 1)


def test_find_gpor_on_corpus():
    # `ghzcert gpor` reports ok without checking again, so every
    # representation find_gpor returns must pass the check
    cases = [(name, h, 0) for name, h in corpus()] + [
        (name, h, seed)
        for name, h in _golden_instances().items()
        if name.startswith("random")
        for seed in range(5)
    ]
    for name, h, seed in cases:
        lam = edge_connectivity(h)
        d = h.l - lam
        rep = find_gpor(line_graph(h), d, seed=seed)
        report = verify_orthrep(rep)
        assert report.ok, (name, seed, report)
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
        f = dict(enumerate(rep.vectors))
        assert sweep(rep.graph, f) == f


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
    with pytest.raises(RetriesExhaustedError) as err:
        find_gpor(Graph(2), 1)
    assert (err.value.code, err.value.attempts, err.value.bound) == (
        "RetriesExhausted", 49, 1000
    )
    message = str(err.value)
    assert "banded seed and draws with entries in [-3, 3]" in message
    assert "then draws with entries in [-1000, 1000]" in message
    assert message.endswith("retry with a different seed")
    assert "larger bound" not in message


def test_candidates_are_distinct_and_verified():
    g = line_graph(corpus()[1][1])  # C4
    cands = list(gpor_candidates(g, 2, seed=0, count=4))
    assert 1 <= len(cands) <= 4
    assert len(set(cands)) == len(cands)
    for rep in cands:
        assert verify_orthrep(rep).ok


def test_draws_are_the_randint_stream():
    # each coordinate is drawn by rejection on getrandbits, the stream that
    # randint(-bound, bound) consumes
    def ref_draws(seed, n, d, bound, draws):
        rng = random.Random(seed)
        for _ in range(draws):
            f = {}
            for v in range(n):
                while True:
                    w = tuple(rng.randint(-bound, bound) for _ in range(d))
                    if any(w):
                        break
                f[v] = w
            yield f

    for seed in range(40):
        for n, d, bound, draws in ((3, 1, 1, 8), (6, 4, 3, 16), (5, 3, 1000, 32)):
            got = list(_draws(seed, n, d, bound, draws))
            assert got == list(ref_draws(seed, n, d, bound, draws))


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


def _general_position_case(rng):
    """l vectors meant for Z^d: drawn from a random span of rank at most d,
    with zero, repeated and scaled vectors mixed in, and now and then one
    vector of the wrong width."""
    d, l = rng.randint(0, 6), rng.randint(0, 10)
    r = d if rng.random() < 0.6 else rng.randint(0, d)
    span = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
    vectors = []
    for _ in range(l):
        kind = rng.random()
        if kind < 0.08:
            v = (0,) * d
        elif kind < 0.25 and vectors:
            v = tuple(rng.choice((-3, -1, 2, 5)) * x for x in rng.choice(vectors))
        else:
            coef = [rng.randint(-2, 2) for _ in range(r)]
            v = tuple(sum(c * b[t] for c, b in zip(coef, span)) for t in range(d))
        vectors.append(v)
    if vectors and rng.random() < 0.05:
        vectors[rng.randrange(l)] += (1,)
    return l, d, tuple(vectors)


def _complete(n):
    return graph(n, combinations(range(n), 2))


def test_general_position_walk_matches_one_rank_per_subset():
    # the walk over c (l - d >= d), over the rows of c's kernel (l - d < d),
    # and every edge case, against one Bareiss rank per subset
    rng = random.Random(3102)
    seen = set()
    for _ in range(1200):
        l, d, vectors = _general_position_case(rng)
        report = verify_orthrep(OrthRep(_complete(l), d, vectors))
        wrong = tuple(v for v in range(l) if len(vectors[v]) != d)
        if wrong:
            assert report == OrthRepReport((), (), (), wrong)
            seen.add("wrong width")
            continue
        want = ref_dependent_subsets(vectors, d)
        zeros = tuple(v for v in range(l) if d and not any(vectors[v]))
        assert report == OrthRepReport((), want, zeros), (vectors, d)
        size = min(d, l)
        side = "c" if l - size >= size else "kernel"
        tags = {
            f"{side}: dependent" if want else f"{side}: independent",
            f"{side}: zero vector" if zeros else None,
            f"{side}: rank below size" if d and ref_rank(vectors) < size else None,
            "d = 0" if d == 0 else None,
            "no vectors" if d and l == 0 else None,
            "l < d" if l < d else None,
            "l = d" if d and l == d else None,
        }
        seen |= tags - {None}
    assert seen == {
        f"{side}: {tag}"
        for side in ("c", "kernel")
        for tag in ("dependent", "independent", "zero vector", "rank below size")
    } | {"wrong width", "d = 0", "no vectors", "l < d", "l = d"}


def test_general_position_of_long_cycles(monkeypatch):
    # C_k has d = k - 2, so the check walks the pairs of kernel rows in Z^2
    sizes = []
    walk = ghzcert.gpor._dependent

    def spy(vectors, size):
        sizes.append(size)
        return walk(vectors, size)

    monkeypatch.setattr(ghzcert.gpor, "_dependent", spy)
    for k in (16, 24, 40):
        rep = find_gpor(line_graph(cycle_hypergraph(k)), k - 2, seed=0)
        assert verify_orthrep(rep).ok
        assert sizes.pop() == 2
    rep24 = find_gpor(line_graph(cycle_hypergraph(24)), 22, seed=0)
    assert ref_dependent_subsets(rep24.vectors, 22) == ()
    # C16 with c_3 moved into the span of c_0 and c_1
    rep = find_gpor(line_graph(cycle_hypergraph(16)), 14, seed=0)
    vecs = list(rep.vectors)
    vecs[3] = tuple(2 * a - b for a, b in zip(vecs[0], vecs[1]))
    dependent = verify_orthrep(rep._replace(vectors=tuple(vecs))).dependent_subsets
    assert dependent == ref_dependent_subsets(vecs, 14)
    # the C(13, 11) 14-subsets holding 0, 1 and 3
    assert len(dependent) == 78 and all({0, 1, 3} <= set(sub) for sub in dependent)


def test_general_position_cap_admits_exactly_its_subset_count(monkeypatch):
    # C6 has d = 4: the check walks C(6, 4) = 15 subsets, so a cap of 15
    # admits it and a cap of 14 refuses it before any subset is looked at
    rep = find_gpor(line_graph(cycle_hypergraph(6)), 4, seed=0)
    monkeypatch.setattr(ghzcert.gpor, "GENERAL_POSITION_SUBSET_LIMIT", 15)
    assert verify_orthrep(rep).ok
    monkeypatch.setattr(ghzcert.gpor, "GENERAL_POSITION_SUBSET_LIMIT", 14)
    with pytest.raises(TooLargeError) as err:
        verify_orthrep(rep)
    assert str(err.value) == (
        "C(6, 4) subsets exceed the general-position check limit 14"
    )


def _bench_workloads():
    """The benchmark's plan module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_general_position_of_a_certify_round_matches_one_rank_per_subset(
    monkeypatch,
):
    # every representation that the whole candidate search checks for the
    # commands of one seed-1 round of the benchmark's certify workload;
    # synthesis itself stops the search early and checks fewer
    from ghzcert.protocol import synthesize_certificate

    checked = []
    verify = ghzcert.gpor.verify_orthrep

    def recording_verify(rep):
        checked.append(rep)
        return verify(rep)

    monkeypatch.setattr(ghzcert.gpor, "verify_orthrep", recording_verify)
    plan = _bench_workloads().plan_certify(1)
    commands = []
    for op in plan.round:
        _, file, _, n, _, seed, *_ = op.argv
        h = Hypergraph.from_json_dict(plan.inputs[file.removesuffix(".json")])
        commands.append((h, int(n), int(seed)))
    for h, _, seed in commands:
        list(gpor_candidates(line_graph(h), h.l - edge_connectivity(h), seed=seed))
    assert len(checked) == 316
    for rep in checked:
        report = verify(rep)
        assert report.dependent_subsets == ref_dependent_subsets(rep.vectors, rep.d)
    checked.clear()
    for h, n, seed in commands:
        synthesize_certificate(h, n, seed=seed)
    assert len(checked) == 148


def test_fixed_point_property_of_verified_reps():
    for name, h in corpus():
        lam = edge_connectivity(h)
        d = h.l - lam
        if d == 0:
            continue
        rep = find_gpor(line_graph(h), d, seed=1)
        f = dict(enumerate(rep.vectors))
        assert sweep(rep.graph, f) == f, name


def _random_input(rng, n, d):
    """Integer vectors, some zero, some repeated and some not primitive, so
    that outputs collapse to zero now and then."""
    f = {}
    for v in range(n):
        kind = rng.random()
        if kind < 0.1:
            w = (0,) * d
        elif kind < 0.35 and f:
            w = f[rng.randrange(v)]
        else:
            w = tuple(rng.randint(-3, 3) for _ in range(d))
        if rng.random() < 0.3:
            w = tuple(rng.randint(2, 5) * x for x in w)
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
        out = sweep(g, f, ordering)
        want = ref_orthogonalize_map(g, f, ordering)
        assert out == {v: ref_primitive(w) for v, w in want.items()}
        assert list(out) == list(want)
        collapsed += sum(not any(w) and any(f[v]) for v, w in out.items())
    assert collapsed > 50 and reordered > 200


def test_one_sweep_matches_fraction_settle():
    """One integer sweep of the primitive start, as gpor_candidates runs it,
    is the Fraction sweep-until-it-settles, and that always settles."""
    rng = random.Random(52)
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
        want = ref_settle(g, f)
        assert want is not None
        assert sweep(g, f) == {v: ref_primitive(w) for v, w in want.items()}


# -- golden digests of the search's output, captured before the integer sweep;
# those of gpor_candidates and find_gpor were captured again when the search
# became one policy (the first stage's stay as they were)


def _golden_instances():
    out = dict(corpus())
    out["C6"] = cycle_hypergraph(6)
    rng = random.Random(7)
    for idx in range(8):
        out[f"random{idx}"] = random_connected_hypergraph(rng, kmax=6, emax=8, emin=4)
    return out


def _first_stage(lg, d, seed):
    """The search's first stage on its own: the banded seed, then 16 draws
    from [-3, 3]^d.  Its digests are those of the former bound-3 search."""
    if d == 0:
        return list(gpor_candidates(lg, d, seed=seed))
    band = dict(enumerate(_band_vectors(lg.n, d)))
    found = list(_verified(lg, d, chain([band], _draws(seed, lg.n, d, 3, 16)), 4))
    if not found:
        raise RetriesExhaustedError(17, 3)
    return found


GOLDEN_CALLS = {
    "candidates_bound3": _first_stage,
    "candidates": lambda lg, d, s: list(gpor_candidates(lg, d, seed=s)),
    "find_gpor": lambda lg, d, s: [find_gpor(lg, d, seed=s)],
}

GPOR_GOLDEN = {
    ("K3", "candidates_bound3"): "63fddca7d446a01b325af7c6d1b6975d39ef27dfa81accebf90de891b56d8474",
    ("K3", "candidates"): "63fddca7d446a01b325af7c6d1b6975d39ef27dfa81accebf90de891b56d8474",
    ("K3", "find_gpor"): "68a6f69dcd192b723c72b904e9bec0aa9951dd6e19940b6204a4ed038ce29718",
    ("C4", "candidates_bound3"): "2d1cbaff4a52fceed8546496f80657520eae39fd3f6887b0f0dd8b0375430f2b",
    ("C4", "candidates"): "2d1cbaff4a52fceed8546496f80657520eae39fd3f6887b0f0dd8b0375430f2b",
    ("C4", "find_gpor"): "30ba3447ba72e4a05cd5df3e1aaafb585bac4983df0445772f427d6db24d56ce",
    ("C5", "candidates_bound3"): "b0d1c18d152151f97d697002061573720155389cb84a5dc52268df508378640a",
    ("C5", "candidates"): "b0d1c18d152151f97d697002061573720155389cb84a5dc52268df508378640a",
    ("C5", "find_gpor"): "0eff5ef6ff95323396e01a8244122af5a5766d804a8ed175fd90dc8d4100776d",
    ("K4^2", "candidates_bound3"): "e5b498a0b002a0a1bffef3198c01354d9a03f018f73373de9f64064ffda86a74",
    ("K4^2", "candidates"): "e5b498a0b002a0a1bffef3198c01354d9a03f018f73373de9f64064ffda86a74",
    ("K4^2", "find_gpor"): "2d205534fefe255fc85d547b12d84e78e0f7d43f99b8986ed51a1703b9b0a755",
    ("K4^3", "candidates_bound3"): "00ee8ce5a35be317d81da0544b8f3b542fb549a887658b1c94f889c7226fefca",
    ("K4^3", "candidates"): "00ee8ce5a35be317d81da0544b8f3b542fb549a887658b1c94f889c7226fefca",
    ("K4^3", "find_gpor"): "d75e12caceb9aaefe06f2184bce076ea516373bdc614b59d36f463f0765faf3c",
    ("path3", "candidates_bound3"): "484e63eac365d51eb00e45288a5aebc870ed404705fbfe5f119343b3eed19c8f",
    ("path3", "candidates"): "484e63eac365d51eb00e45288a5aebc870ed404705fbfe5f119343b3eed19c8f",
    ("path3", "find_gpor"): "a8a43cfabe6931f096ea09eb2d84c03e685fe91fc04bd5ea8a425f3026ab3f78",
    ("path4", "candidates_bound3"): "46e38cf850c7ff47cb40e190938ba4a617eca1fcb463c49b20c2c950dbff92de",
    ("path4", "candidates"): "46e38cf850c7ff47cb40e190938ba4a617eca1fcb463c49b20c2c950dbff92de",
    ("path4", "find_gpor"): "c17e0b6292c23dc268db53eb16ea36590937049874a89e74038d065bff101f21",
    ("path5", "candidates_bound3"): "ece2e741f1432dd233a3416d4df1a1dd3a5851f5fde44d637e068a042942dc74",
    ("path5", "candidates"): "ece2e741f1432dd233a3416d4df1a1dd3a5851f5fde44d637e068a042942dc74",
    ("path5", "find_gpor"): "8872c57b7739e6b78ad11f0e6fca47f393c339b8cb66aeed633b7dc124a234a9",
    ("full3", "candidates_bound3"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("full3", "candidates"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("full3", "find_gpor"): "229ea65ead59d80538d9daabfaf0643c72b8a7e26a0494592a3228a5dd632b81",
    ("C6", "candidates_bound3"): "477c07f5d004c2f361ff43469614a0b7a740a4d80208d7378e9790ea2ba4451b",
    ("C6", "candidates"): "477c07f5d004c2f361ff43469614a0b7a740a4d80208d7378e9790ea2ba4451b",
    ("C6", "find_gpor"): "696ea2cbda398dd51554e5e205fa8111a01caf16bcb0b0cf33bf98e584514c09",
    ("random0", "candidates_bound3"): "21bb4364824c1e95450a11029d1133e886fe65d5ef8178fff4a6a50f8b8860ab",
    ("random0", "candidates"): "21bb4364824c1e95450a11029d1133e886fe65d5ef8178fff4a6a50f8b8860ab",
    ("random0", "find_gpor"): "29c612c27d4d453a1a33db00f65708b5084492e3db4e8b390d00e1d3d96e67b5",
    ("random1", "candidates_bound3"): "909fc8b57f639bb6b8dce3afb32867215160e1d2ead3cc02e81b2d5f2ba71095",
    ("random1", "candidates"): "909fc8b57f639bb6b8dce3afb32867215160e1d2ead3cc02e81b2d5f2ba71095",
    ("random1", "find_gpor"): "39adfc49fc71b99c95a4361160efc1b3264bb833179ee064ded2c402cebd2193",
    ("random2", "candidates_bound3"): "4dbb6eeaab9e9bba66a7319c979a521cf1c6d6a56cc67e4e520eae2b4b49302f",
    ("random2", "candidates"): "4dbb6eeaab9e9bba66a7319c979a521cf1c6d6a56cc67e4e520eae2b4b49302f",
    ("random2", "find_gpor"): "dfb123b05ccec3f881e7ce332ce0e4519098c5dacb9b574e3e5931a326ddc9d4",
    ("random3", "candidates_bound3"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random3", "candidates"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random3", "find_gpor"): "5b494936c89b475b8a390776f06a57eecddff0afa47ee1fb3dd7776a0c940018",
    ("random4", "candidates_bound3"): "7744e5e81be5b5267a98c4bfd79547d5260715c8a351108cc83116b756592a9d",
    ("random4", "candidates"): "0c6c2beac093e54d72e060b7f30d58f9fd8a18443f78c02b08f4449c6fc056db",
    ("random4", "find_gpor"): "b9f3b11cf8ff9d6f24473c74ba6c267150b79cbfb4dca7b60664ea6d538e530a",
    ("random5", "candidates_bound3"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random5", "candidates"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random5", "find_gpor"): "cafb9935c460ec862a24b86591e486f4a27050ed085f8e3e4d08452979184ed2",
    ("random6", "candidates_bound3"): "8d462aa6fca8930e684e04c2a6af797cbbd1555c66b761dab74693ade2550ead",
    ("random6", "candidates"): "780612d1d9d4629168ec5a171ebcf54de4c3992e6aba8c87a0187497aa038785",
    ("random6", "find_gpor"): "afe592a007413fef8a2ea90fb2481427d2b95308435a6a1426710a9c599f4761",
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
