import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    corpus,
    random_connected_hypergraph,
    ref_completeness,
    ref_exponent_sign,
    ref_histogram,
    ref_pivot_solutions,
    ref_rank,
    ref_solutions,
    ref_to_json_bytes,
    tamper_certificate,
)
from ghzcert.errors import (
    BadGridLimitError,
    BadLevelError,
    DimMismatchError,
    DisconnectedError,
    GridTooLargeError,
    LevelsUnsupportedError,
    NotGeneralPositionError,
    NotOrthRepError,
    GhzcertError,
    RetriesExhaustedError,
    SameVertexError,
)
from ghzcert.cli import run as cli_run
from ghzcert.gpor import OrthRep, find_gpor, gpor_candidates
from ghzcert.hypergraph import (
    Graph,
    complete_uniform,
    cycle_hypergraph,
    edge_connectivity,
    graph,
    hypergraph,
    line_graph,
    path_hypergraph,
    single_full_edge,
)
from ghzcert.tensor import apply_local_diagonal, ghz_state
from ghzcert.protocol import (
    _json_text,
    _pivot_inverse,
    _pivot_solutions,
    Certificate,
    QuadraticAssignment,
    build_certificate,
    build_exponent_assignment,
    c_prime,
    choose_g,
    counting_floor,
    enumerate_solutions,
    epr_rate,
    ghz_rate_bound,
    solution_hash,
    synthesize_certificate,
    value_histogram,
    verify_certificate,
)

K3 = cycle_hypergraph(3)


def scalar_rep(values):
    n = len(values)
    complete = graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    return OrthRep(complete, 1, tuple((v,) for v in values))


# -- assignments -------------------------------------------------------------

def test_assignment_totals_match_square_on_k3():
    rep = scalar_rep([1, 1, 1])
    for g in ((0,), (2,), (4,)):
        qa = build_exponent_assignment(K3, rep, g)
        for i in product(range(4), repeat=3):
            want = (i[0] + i[1] + i[2] - g[0]) ** 2
            assert qa.total_exponent(i) == want


def test_assignment_single_edge():
    h = single_full_edge(3)
    rep = OrthRep(Graph(1), 1, ((1,),))
    qa = build_exponent_assignment(h, rep, (0,))
    assert qa.quad[0] == {(0, 0): 1}
    assert qa.quad[1] == {} and qa.quad[2] == {}
    assert qa.lin == ({}, {}, {}) and qa.const == (0, 0, 0)
    for i in range(5):
        assert qa.total_exponent((i,)) == i * i


def test_assignment_c4_identity_on_grid():
    h = cycle_hypergraph(4)
    rep = OrthRep(
        line_graph(h), 2, ((1, 0), (1, 1), (0, 1), (1, -1))
    )
    g = (0, 0)
    qa = build_exponent_assignment(h, rep, g)
    for i in product(range(3), repeat=4):
        direct = sum(
            (sum(rep.vectors[e][t] * i[e] for e in range(4)) - g[t]) ** 2
            for t in range(2)
        )
        assert qa.total_exponent(i) == direct


def test_assignment_locality():
    for _, h in corpus():
        lam = edge_connectivity(h)
        rep = find_gpor(line_graph(h), h.l - lam, seed=0)
        qa = build_exponent_assignment(h, rep, (0,) * rep.d)
        for j in range(1, h.k + 1):
            assert qa.mentioned_edges(j) <= set(h.incident(j))


def test_assignment_rejects_crossing_without_common_vertex():
    # disjoint edges with non-orthogonal vectors cannot be hosted anywhere
    h = hypergraph(4, [{1, 2}, {3, 4}])
    rep = OrthRep(graph(2, [(0, 1)]), 2, ((1, 0), (1, 1)))
    with pytest.raises(NotOrthRepError) as err:
        build_exponent_assignment(h, rep, (0, 0))
    assert err.value.code == "NotOrthRep"


def test_assignment_dim_checks():
    rep = scalar_rep([1, 1, 1])
    with pytest.raises(DimMismatchError):
        build_exponent_assignment(K3, rep, (0, 0))
    with pytest.raises(DimMismatchError):
        build_exponent_assignment(path_hypergraph(3), rep, (0,))


def test_assignment_json_round_trip():
    rep = scalar_rep([1, 1, 1])
    qa = build_exponent_assignment(K3, rep, (4,))
    back = QuadraticAssignment.from_json_dict(qa.to_json_dict(), K3.l)
    assert back == qa


# -- solution counting -------------------------------------------------------

def test_choose_g_strassen():
    rep = scalar_rep([1, 1, 1])
    g, m = choose_g(rep, 4)
    assert g == (4,) and m == 12


def test_choose_g_path_triangle_peak():
    rep = scalar_rep([1, 1])
    for n in (2, 3, 4, 7):
        g, m = choose_g(rep, n)
        assert g == (n - 1,) and m == n


def test_choose_g_single_edge_flat():
    rep = OrthRep(Graph(1), 1, ((1,),))
    g, m = choose_g(rep, 5)
    assert g == (0,) and m == 1  # every value once; lex tie-break


def test_histogram_matches_brute_force():
    rng = random.Random(41)
    for _ in range(10):
        l = rng.randint(1, 4)
        d = rng.randint(1, 2)
        n = rng.choice([2, 3])
        vectors = tuple(
            tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(l)
        )
        rep = OrthRep(
            graph(l, [(a, b) for a in range(l) for b in range(a + 1, l)]),
            d,
            vectors,
        )
        assert value_histogram(rep, n) == ref_histogram(vectors, n)


def random_gp_reps(seed: int, count: int):
    """(rep, n) for general-position reps of small random hypergraphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = random_connected_hypergraph(rng, kmax=5, emax=6)
        d = h.l - edge_connectivity(h)
        if d > 3:
            continue
        rep = find_gpor(line_graph(h), d, seed=len(out))
        out.append((rep, rng.randint(2, 4)))
    return out


def test_counting_matches_grid_sweep_on_random_reps():
    rng = random.Random(7)
    dims = set()
    for rep, n in random_gp_reps(seed=2024, count=40):
        dims.add(rep.d)
        hist = ref_histogram(rep.vectors, n)
        assert value_histogram(rep, n) == hist
        mode = max(hist.values())
        want_g = min(v for v, c in hist.items() if c == mode)
        assert choose_g(rep, n) == (want_g, mode)
        off_grid = tuple(x + 10**6 for x in want_g)
        for g in (want_g, rng.choice(sorted(hist)), off_grid):
            sols = enumerate_solutions(rep, n, g)
            assert sols == ref_solutions(rep.vectors, n, g), (rep, n, g)
            assert len(sols) <= n ** (rep.graph.n - rep.d)
    assert dims == {0, 1, 2, 3}


def test_enumerate_solutions_rejects_unsolvable_vectors():
    dependent = OrthRep(Graph(3), 2, ((1, 0), (1, 1), (2, 2)))
    with pytest.raises(NotGeneralPositionError) as err:
        enumerate_solutions(dependent, 3, (2, 2))
    assert err.value.code == "NotGeneralPosition"
    with pytest.raises(DimMismatchError):
        enumerate_solutions(scalar_rep([1, 1, 1]), 3, (2, 2))
    with pytest.raises(DimMismatchError):  # l = 1 < d = 2
        enumerate_solutions(OrthRep(Graph(1), 2, ((1, 0),)), 3, (0, 0))
    with pytest.raises(DimMismatchError):
        choose_g(OrthRep(Graph(2), 1, ((1,), (1, 0))), 3)


def test_enumerate_solutions_examples():
    rep = scalar_rep([1, 1, 1])
    sols = enumerate_solutions(rep, 4, (4,))
    assert len(sols) == 12
    assert sols == sorted(sols)
    assert all(sum(s) == 4 for s in sols)
    pair = scalar_rep([1, 1])
    assert enumerate_solutions(pair, 4, (3,)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert enumerate_solutions(pair, 4, (99,)) == []


def _random_pivot_case(rng: random.Random, n: int):
    """Random int vectors whose last d form an invertible pivot block, with
    the pivot inverse's D and the last free column's steps s_t = (A c)_t."""
    while True:
        l = rng.randint(1, 5 if n <= 3 else 4)
        d = rng.randint(0, min(l, 3))
        vectors = tuple(
            tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(l)
        )
        try:
            adj, den = _pivot_inverse(vectors[l - d:])
        except NotGeneralPositionError:
            continue
        last = vectors[l - d - 1] if l > d else ()
        steps = [sum(a * b for a, b in zip(row, last)) for row in adj]
        return vectors, den, steps


def test_pivot_solutions_match_grid_sweep():
    rng = random.Random(2718)
    seen = set()
    for case in range(400):
        n = 2 + case % 4
        vectors, den, steps = _random_pivot_case(rng, n)
        l, d = len(vectors), len(vectors[0])
        hist = ref_histogram(vectors, n)
        mode = max(hist.values())
        box = c_prime(OrthRep(Graph(l), d, vectors)) * (n - 1)
        targets = [
            min(v for v, c in hist.items() if c == mode),  # the mode
            rng.choice(sorted(hist)),  # any grid value
            tuple(rng.randint(-box, box) for _ in range(d)),  # often off-grid
            tuple(box + 1 + rng.randint(0, 3) for _ in range(d)),  # off the box
        ]
        for g in targets:
            got = list(_pivot_solutions(vectors, n, g))
            assert got == ref_solutions(vectors, n, g), (vectors, n, g)
        seen.add(("lam", min(l - d, 2)))
        seen.add(("d", min(d, 1)))
        if den > 1:
            seen.add("D > 1")
        seen.update(("step", (s > 0) - (s < 0)) for s in steps)
    assert seen == {
        ("lam", 0), ("lam", 1), ("lam", 2), ("d", 0), ("d", 1),
        "D > 1", ("step", -1), ("step", 0), ("step", 1),
    }


def test_pivot_solutions_match_per_assignment_solve():
    rng = random.Random(3141)
    for case in range(200):
        n = rng.choice([2, 3, 5, 8, 13])
        vectors, _, _ = _random_pivot_case(rng, 5)
        d = len(vectors[0])
        g = tuple(rng.randint(-4 * n, 4 * n) for _ in range(d))
        want = list(ref_pivot_solutions(vectors, n, g))
        assert list(_pivot_solutions(vectors, n, g)) == want, (vectors, n, g)
    for name, h in corpus():
        for n in (5, 9):
            cert = synthesize_certificate(h, n, seed=1)
            want = list(ref_pivot_solutions(cert.rep.vectors, n, cert.g))
            assert list(_pivot_solutions(cert.rep.vectors, n, cert.g)) == want, name
            assert len(want) == cert.m_count


def test_grid_guard_env_override(monkeypatch):
    rep = scalar_rep([1, 1, 1])
    monkeypatch.setenv("GHZCERT_MAX_GRID", "10")
    with pytest.raises(GridTooLargeError) as err:
        enumerate_solutions(rep, 4, (4,))
    assert err.value.code == "GridTooLarge"
    with pytest.raises(GridTooLargeError):
        choose_g(rep, 4)
    monkeypatch.setenv("GHZCERT_MAX_GRID", "1000")
    assert len(enumerate_solutions(rep, 4, (4,))) == 12


@pytest.mark.parametrize("raw", ["ten", "1e3", "2.5", "", "0", "-4"])
def test_grid_guard_rejects_bad_env_value(monkeypatch, raw):
    monkeypatch.setenv("GHZCERT_MAX_GRID", raw)
    with pytest.raises(BadGridLimitError) as err:
        choose_g(scalar_rep([1, 1, 1]), 4)
    assert err.value.code == "BadGridLimit"
    with pytest.raises(BadGridLimitError):
        synthesize_certificate(K3, 4)


def test_c_prime_and_floor():
    assert c_prime(scalar_rep([1, 1, 1])) == 3
    band = OrthRep(
        line_graph(cycle_hypergraph(4)), 2, ((1, 0), (1, 1), (0, 1), (-1, 1))
    )
    assert c_prime(band) == 3
    # K_3, n = 4: ceil(64 / (2*3*3 + 1)) = 4
    assert counting_floor(scalar_rep([1, 1, 1]), 4) == 4


def test_solution_hash_is_order_and_content_sensitive():
    a = solution_hash([(0, 1), (1, 0)])
    b = solution_hash([(1, 0), (0, 1)])
    c = solution_hash([(0, 1), (1, 0)])
    assert a == c and a != b
    assert len(a) == 64 and int(a, 16) >= 0


def test_solution_hash_equals_hash_of_compact_json():
    rng = random.Random(5)
    for count in (0, 1, 7, 4095, 4096, 4097, 9000):
        width = rng.randint(0, 4)
        sols = [
            tuple(rng.randint(-10**12, 10**12) for _ in range(width))
            for _ in range(count)
        ]
        blob = json.dumps([list(s) for s in sols], separators=(",", ":"))
        want = hashlib.sha256(blob.encode()).hexdigest()
        assert solution_hash(sols) == want
        assert solution_hash(iter(sols)) == want


def test_solution_hash_of_solutions_of_different_lengths():
    rng = random.Random(6)
    for count in (2, 5, 4097):
        sols = [
            tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 3)))
            for _ in range(count)
        ]
        blob = json.dumps([list(s) for s in sols], separators=(",", ":"))
        assert solution_hash(sols) == hashlib.sha256(blob.encode()).hexdigest()


# sha256 of `ghzcert certify --n N --seed 0` output, captured before counting
# moved from a depth-first search to the pivot solve; a certificate's bytes
# must not depend on how its solutions were found.
GOLDEN_CERTIFY_SHA256 = [
    ("K3", cycle_hypergraph(3), 4,
     "397ee6b526ecaac1a09bcfb6957e135ef4f81e6b07a45ae10cd9dc3834c672b6"),
    ("full3", single_full_edge(3), 3,
     "b79f53b2aaf4fb93ecb1a99e628290adb7915892ba25618b531063fc2e0771d6"),
    ("C6", cycle_hypergraph(6), 6,
     "4dcf2b1bbebf6c461ccd1da98d719aa51314f3d9bbc86b98d702528afcae8568"),
    ("C4", cycle_hypergraph(4), 32,
     "8a98160124e60b2514fa4a5166684bfcd36e2d5eba48dee2cbd9d0ee1fde2369"),
    ("K4^3", complete_uniform(4, 3), 20,
     "1d24d3a42fcb323a6a9a24e478bb5b1e82f3297ac2deb307cb9aaeec0a7caab0"),
    ("K4^3", complete_uniform(4, 3), 32,  # hash-only
     "7e336e067b2e28cfdea1a46aca039fd6a0b7f2f4cf52d4db8533c823258df5b7"),
]


@pytest.mark.parametrize(
    "name, h, n, digest", GOLDEN_CERTIFY_SHA256,
    ids=[f"{c[0]}-n{c[2]}" for c in GOLDEN_CERTIFY_SHA256],
)
def test_certify_bytes_golden(name, h, n, digest, tmp_path):
    src = tmp_path / "h.json"
    src.write_text(json.dumps(h.to_json_dict()))
    out = tmp_path / "cert.json"
    assert cli_run(["certify", str(src), "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- synthesis ---------------------------------------------------------------

def test_synthesize_k3_known_counts():
    for n, want in [(2, 3), (4, 12), (8, 48), (16, 192), (32, 768)]:
        cert = synthesize_certificate(K3, n, seed=0)
        assert cert.m_count == want
        assert cert.lam == 2 and cert.d == 1
        assert cert.m_count >= counting_floor(cert.rep, n)


def test_synthesize_deterministic():
    a = synthesize_certificate(cycle_hypergraph(4), 4, seed=3)
    b = synthesize_certificate(cycle_hypergraph(4), 4, seed=3)
    assert a.to_json_bytes() == b.to_json_bytes()


def test_synthesis_keeps_the_first_candidate_with_the_largest_mode():
    # the several-candidate branch, spelled out with choose_g per candidate
    ties = 0
    for h, n in [(cycle_hypergraph(6), 3), (cycle_hypergraph(4), 5),
                 (complete_uniform(4, 2), 2), (K3, 7), (path_hypergraph(4), 6)]:
        lg, d = line_graph(h), h.l - edge_connectivity(h)
        for seed in (0, 1, 2):
            reps = []
            try:
                reps += gpor_candidates(
                    lg, d, seed=seed, count=4, bound=3, max_retries=16
                )
            except RetriesExhaustedError:
                pass
            more = gpor_candidates(lg, d, seed=seed, count=4)
            reps += [r for r in more if r not in reps]
            scored = [(choose_g(rep, n), rep) for rep in reps]
            (g, m), rep = max(scored, key=lambda item: item[0][1])
            ties += sum(gm[1] == m for gm, _ in scored) > 1
            cert = synthesize_certificate(h, n, seed=seed)
            assert (cert.g, cert.m_count, cert.rep) == (g, m, rep), (h, n, seed)
    assert ties


def test_synthesize_rejects_bad_inputs():
    with pytest.raises(DisconnectedError):
        synthesize_certificate(hypergraph(4, [{1, 2}, {3, 4}]), 2)
    with pytest.raises(BadLevelError):
        synthesize_certificate(K3, 1)
    with pytest.raises(LevelsUnsupportedError):
        synthesize_certificate(hypergraph(2, [{1, 2}], [3]), 2)


def test_certificate_round_trip():
    cert = synthesize_certificate(K3, 4, seed=0)
    obj = json.loads(cert.to_json_bytes())
    back = Certificate.from_json_dict(obj)
    assert back == cert
    assert back.to_json_bytes() == cert.to_json_bytes()


def _json_value(rng: random.Random, depth: int):
    kind = rng.choice(
        ["int", "int", "row", "rows", "float", "str", "bool", "none", "list", "dict"]
        if depth < 3 else ["int", "float", "str", "bool", "none"]
    )
    if kind == "int":
        return rng.randint(-10**20, 10**20)
    if kind == "row":
        return rng.choice([list, tuple])(
            rng.randint(-99, 99) for _ in range(rng.randint(0, 4))
        )
    if kind == "rows":  # one length, except now and then
        width = rng.randint(0, 3)
        rows = [
            [rng.randint(-9, 9) for _ in range(width)] for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            rows[-1].append(rng.choice([1, True, 2.5, "x"]))
        return rows
    if kind == "float":
        return rng.choice([0.0, -1.5, 1e300, 2.0, 1 / 3, float("inf")])
    if kind == "str":
        return rng.choice(["", "a", "\u00e9\"\n", "hash"])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "list":
        return [_json_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    keys = rng.sample(["B", "a", "b", "c_x", "C", "\u00e9", ""], rng.randint(0, 4))
    return {key: _json_value(rng, depth + 1) for key in keys}


def test_json_text_matches_the_indenting_encoder():
    rng = random.Random(77)
    for _ in range(3000):
        value = _json_value(rng, 0)
        assert _json_text(value, "") == json.dumps(value, indent=2, sort_keys=True)


def _serialization_cases():
    rng = random.Random(12)
    for name, h in corpus():
        for n in (2, 3, 4):
            cert = synthesize_certificate(h, n, seed=0)
            yield f"{name}-n{n}", cert
            obj = cert.to_json_dict()
            for kind in ("M", "c", "g", "assignment"):
                tampered = tamper_certificate(obj, kind, rng)
                yield f"{name}-n{n}-{kind}", Certificate.from_json_dict(tampered)
    for name, h, n in [
        ("C4", cycle_hypergraph(4), 32),
        ("K4^3", complete_uniform(4, 3), 20),
        ("K4^3", complete_uniform(4, 3), 32),  # hash-only
    ]:
        yield f"{name}-n{n}", synthesize_certificate(h, n, seed=0)
    # full3 has d = 0: c is one empty row and g is empty
    cert = synthesize_certificate(single_full_edge(3), 3, seed=0)
    yield "full3-ragged", dataclasses.replace(cert, solutions=((0,), (1, 2), ()))


def test_to_json_bytes_matches_the_indenting_encoder():
    seen_d0 = seen_hash_only = 0
    for key, cert in _serialization_cases():
        assert cert.to_json_bytes() == ref_to_json_bytes(cert), key
        seen_d0 += cert.to_json_dict()["c"][0] == []
        seen_hash_only += cert.solutions is None
    assert seen_d0 and seen_hash_only


def test_certificate_schema_fields():
    cert = synthesize_certificate(K3, 4, seed=0)
    obj = cert.to_json_dict()
    assert obj["lambda"] == 2 and obj["d"] == 1
    assert obj["c"] == [[1], [1], [1]]
    assert obj["M"] == 12 and obj["n"] == 4
    assert obj["version"] == "1"
    assert obj["bound_rate"] == 2
    assert set(obj["achieved_rate"]) == {"log2_M", "log2_n"}
    assert isinstance(obj["solutions"], list)
    assert obj["seed"] == 0


def _set_field(obj: dict, path: tuple, value) -> dict:
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


NOT_INTEGERS = [
    (("M",), 12.5),
    (("n",), 4.9),
    (("c", 1, 0), 1.25),
    (("solutions", 3, 0), 0.5),
    (("M",), 12.0),
    (("lambda",), True),
    (("n",), "4"),
    (("g", 0), "4"),
    (("seed",), False),
    (("d",), None),
    (("C_prime",), 3.0),
    (("solutions", 0, 1), True),
    (("c", 0), "1"),
    (("assignment", "vertices", 0, "const"), 0.5),
    (("assignment", "vertices", 0, "quad", 0, 2), 2.0),
    (("assignment", "vertices", 0, "lin", 0, 1), "-8"),
    (("hypergraph", "k"), 3.0),
    (("hypergraph", "edges", 0, "vertices", 0), True),
    (("hypergraph", "edges", 0, "level"), 2.0),
]


@pytest.mark.parametrize("path, value", NOT_INTEGERS)
def test_certificate_parse_accepts_only_integers(path, value):
    # each of these verified ok while integer fields went through int()
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    with pytest.raises(TypeError):
        Certificate.from_json_dict(_set_field(obj, path, value))


def test_hash_only_certificate_parse_accepts_only_integers():
    obj = synthesize_certificate(path_hypergraph(2), 20000, seed=0).to_json_dict()
    for path, value in [(("solutions", "count"), 20000.0), (("M",), 20000.5)]:
        with pytest.raises(TypeError):
            Certificate.from_json_dict(_set_field(obj, path, value))


def test_solution_cap_keeps_count_and_hash():
    # single level-2 edge: every grid point is a solution, M = n
    h = path_hypergraph(2)
    cert = synthesize_certificate(h, 20000, seed=0)
    assert cert.m_count == 20000
    assert cert.solutions is None
    obj = cert.to_json_dict()
    assert obj["solutions"] == {"count": 20000, "hash": cert.sol_hash}
    back = Certificate.from_json_dict(obj)
    assert back.solutions is None and back.m_count == 20000
    report = verify_certificate(back)
    assert report.ok


# -- verification ------------------------------------------------------------

def test_verify_passes_on_corpus():
    for name, h in corpus():
        cert = synthesize_certificate(h, 2, seed=0)
        report = verify_certificate(cert, deep=True)
        assert report.ok, (name, report.summary())
        assert report.check("degeneration").status == "pass"


def test_verify_skips_deep_by_default():
    cert = synthesize_certificate(K3, 4, seed=0)
    report = verify_certificate(cert)
    assert report.ok
    assert report.check("degeneration").status == "skipped"


def test_verify_catches_zeroed_vector():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad_rep = dataclasses.replace(cert.rep, vectors=((0,), (1,), (1,)))
    bad = dataclasses.replace(cert, rep=bad_rep)
    report = verify_certificate(bad)
    assert report.check("orthogonal_representation").status == "fail"
    assert report.check("decodability").status == "fail"
    assert not report.ok


def test_verify_catches_shifted_g():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad = dataclasses.replace(cert, g=(cert.g[0] + 1,))
    report = verify_certificate(bad)
    assert report.check("exponent_sign").status == "fail"
    assert report.check("counting").status == "fail"
    assert not report.ok


def test_verify_catches_wrong_m():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad = dataclasses.replace(cert, m_count=cert.m_count + 1)
    report = verify_certificate(bad)
    assert report.check("counting").status == "fail"


def test_verify_catches_tampered_assignment():
    cert = synthesize_certificate(K3, 4, seed=0)
    quad = list(cert.assignment.quad)
    quad[0] = dict(quad[0])
    quad[0][(0, 0)] += 1
    bad_qa = dataclasses.replace(cert.assignment, quad=tuple(quad))
    bad = dataclasses.replace(cert, assignment=bad_qa)
    report = verify_certificate(bad)
    assert report.check("completeness").status == "fail"


def test_verify_survives_malformed_vectors():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad_rep = dataclasses.replace(cert.rep, vectors=((1,), (1,)))
    bad = dataclasses.replace(cert, rep=bad_rep)
    report = verify_certificate(bad)  # must report, not raise
    assert not report.ok
    rep_check = report.check("orthogonal_representation")
    assert rep_check.status == "fail"
    assert rep_check.detail == "c has 2 vectors, hypergraph has 3 edges"


def test_verify_fails_counting_when_pivots_are_dependent():
    cert = synthesize_certificate(cycle_hypergraph(4), 3, seed=0)
    vectors = cert.rep.vectors[:2] + ((1, 1), (2, 2))
    bad = dataclasses.replace(cert, rep=dataclasses.replace(cert.rep, vectors=vectors))
    report = verify_certificate(bad, deep=True)  # must report, not raise
    assert not report.ok
    counting = report.check("counting")
    assert counting.status == "fail"
    assert "NotGeneralPosition" in counting.detail
    assert "grid too large" not in report.check("degeneration").detail


@pytest.mark.parametrize(
    "vectors, g",
    [
        (((1, 0), (1, 0), (1, 0)), (4,)),  # vectors wider than g
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), (0, 0, 0, 0)),  # l < d
    ],
)
def test_verify_fails_counting_on_malformed_shapes(vectors, g):
    cert = synthesize_certificate(K3, 4, seed=0)
    bad = dataclasses.replace(
        cert, g=g, rep=dataclasses.replace(cert.rep, vectors=vectors)
    )
    report = verify_certificate(bad)
    assert not report.ok
    counting = report.check("counting")
    assert counting.status == "fail" and "DimMismatch" in counting.detail


def test_verify_rejects_listed_count_above_n_to_the_lambda():
    # K3 at n = 2: M = 3 <= n^lambda = 4.  Claim the whole grid instead.
    cert = synthesize_certificate(K3, 2, seed=0)
    grid = tuple(product(range(2), repeat=3))
    bad = dataclasses.replace(
        cert, m_count=len(grid), solutions=grid, sol_hash=solution_hash(grid)
    )
    counting = verify_certificate(bad).check("counting")
    assert counting.status == "fail"
    assert "M 8 above n^lambda = 4" in counting.detail


def test_verify_rejects_hash_only_count_above_n_to_the_lambda():
    # C6 at n = 11: a 1.77e6 grid, too large to recount; M = 10^5 claims
    # rate 4.8 against lambda = 2.
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    bad = dataclasses.replace(cert, m_count=100000, solutions=None)
    report = verify_certificate(bad)
    assert not report.ok
    assert "M 100000 above n^lambda = 121" in report.check("counting").detail


def test_verify_rejects_vectors_wider_than_d():
    # C6 at n = 11 with a zero coordinate appended to every c: orthogonality
    # and general position survive, but c no longer lives in Q^d
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    wide = tuple(v + (0,) for v in cert.rep.vectors)
    bad = dataclasses.replace(cert, rep=dataclasses.replace(cert.rep, vectors=wide))
    report = verify_certificate(bad)
    assert not report.ok
    rep_check = report.check("orthogonal_representation")
    assert rep_check.status == "fail"
    assert rep_check.detail == (
        "c vectors must have d = 4 coordinates; edges [0, 1, 2, 3, 4, 5] have 5"
    )


def test_pivot_inverse_is_the_least_integer_adjugate():
    rng = random.Random(61)
    singular = 0
    for _ in range(2000):
        d = rng.randint(1, 5)
        cols = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        try:
            adj, den = _pivot_inverse(cols)
        except NotGeneralPositionError:
            singular += 1
            assert ref_rank(cols) < d
            continue
        assert ref_rank(cols) == d and den > 0
        for r in range(d):
            for c in range(d):
                got = sum(adj[r][t] * cols[c][t] for t in range(d))
                assert got == (den if r == c else 0)
        assert math.gcd(den, *(x for row in adj for x in row)) == 1
    assert singular > 100


def test_verify_without_recount_says_so():
    # C4 at n = 3 with dependent pivot vectors: the grid is small, but the
    # pivot solve cannot recount M, so no check may lean on a recount
    cert = synthesize_certificate(cycle_hypergraph(4), 3, seed=0)
    vectors = cert.rep.vectors[:2] + ((1, 1), (2, 2))
    bad = dataclasses.replace(cert, rep=dataclasses.replace(cert.rep, vectors=vectors))
    report = verify_certificate(bad, deep=True)
    assert not report.ok
    reason = report.check("counting").detail
    assert report.check("counting").status == "fail"
    assert "cannot recount M: NotGeneralPosition" in reason
    injectivity = report.check("injectivity")
    assert injectivity.status == "skipped"
    assert injectivity.detail in reason
    assert "grid too large" not in report.check("exponent_sign").detail
    hash_only = dataclasses.replace(bad, solutions=None)
    sign = verify_certificate(hash_only).check("exponent_sign")
    assert sign.status == "skipped" and "cannot recount M" in sign.detail


def _local_edits(cert) -> list:
    """Hand-made assignments: a zero-coefficient key off the vertex's edges,
    a cross term under the reversed key (f, e), and a term moved to another
    vertex incident to both of its edges."""
    h, qa = cert.hypergraph, cert.assignment
    out = []

    def edited(j, quad_j, j2=None, quad_j2=None):
        quad = list(qa.quad)
        quad[j] = quad_j
        if j2 is not None:
            quad[j2] = quad_j2
        return dataclasses.replace(
            cert, assignment=dataclasses.replace(qa, quad=tuple(quad))
        )

    far = [(j, e) for j in range(h.k) for e in range(h.l) if e not in h.incident(j + 1)]
    if far:
        j, e = far[0]
        lin = list(qa.lin)
        lin[j] = {**lin[j], e: 0}
        out.append(dataclasses.replace(
            cert, assignment=dataclasses.replace(qa, lin=tuple(lin))
        ))
    terms = [(j, key) for j in range(h.k) for key in sorted(qa.quad[j])]
    cross = [(j, (e, f)) for j, (e, f) in terms if e != f]
    if cross:
        j, (e, f) = cross[0]
        quad_j = dict(qa.quad[j])
        quad_j[(f, e)] = quad_j.pop((e, f))
        out.append(edited(j, quad_j))
    for j, (e, f) in cross + terms:
        shared = h.edges[e].vertices & h.edges[f].vertices - {j + 1}
        if shared:
            j2 = min(shared) - 1
            quad_j, quad_j2 = dict(qa.quad[j]), dict(qa.quad[j2])
            quad_j2[(e, f)] = quad_j2.get((e, f), 0) + quad_j.pop((e, f))
            out.append(edited(j, quad_j, j2, quad_j2))
            break
    return out


def test_verifier_matches_grid_sweep_reference():
    rng = random.Random(404)
    seen = set()
    for name, h in corpus():
        for n in (2, 3, 4):
            cert = synthesize_certificate(h, n, seed=0)
            obj = cert.to_json_dict()
            cases = [cert] + [
                Certificate.from_json_dict(tamper_certificate(obj, kind, rng))
                for kind in ("M", "c", "g", "assignment")
            ] + _local_edits(cert)
            for case in cases:
                report = verify_certificate(case)
                try:  # no recount when the pivot solve refuses c
                    enumerate_solutions(case.rep, n, case.g)
                    sols = ref_solutions(case.rep.vectors, n, case.g)
                except GhzcertError:
                    sols = None
                want = ref_completeness(case)
                assert report.check("completeness").status == want[0], (name, n)
                assert report.check("completeness").detail == want[1], (name, n)
                sign = ref_exponent_sign(case, sols)
                assert report.check("exponent_sign").status == sign[0], (name, n)
                seen.add((want[0], sign[0]))
    # the reference saw both verdicts of each check
    assert {status for status, _ in seen} == {"pass", "fail"}
    assert {status for _, status in seen} == {"pass", "fail"}


def test_deep_exponents_are_the_total_form():
    h, n = cycle_hypergraph(6), 3
    cert = synthesize_certificate(h, n, seed=0)
    t = ghz_state(h, n)
    for j in range(1, h.k + 1):
        t = apply_local_diagonal(t, j, cert.assignment.site_function(h, j))
    incident = [h.incident(j) for j in range(1, h.k + 1)]
    assert len(t.entries) == n**h.l
    for i in product(range(n), repeat=h.l):
        key = tuple(tuple(i[e] for e in inc) for inc in incident)
        assert t.entries[key] == cert.assignment.total_exponent(i)


# -- rates -------------------------------------------------------------------

def test_ghz_rate_bound_values():
    for k in range(3, 6):
        for l in range(2, k):
            rb = ghz_rate_bound(complete_uniform(k, l))
            assert rb.lam == edge_connectivity(complete_uniform(k, l))
            assert rb.uniform and rb.ghz2_per_copy == rb.lam
    assert ghz_rate_bound(cycle_hypergraph(6)).lam == 2
    mixed = ghz_rate_bound(single_full_edge(3, level=4))
    assert not mixed.uniform
    assert mixed.cut_rank == 4 and mixed.ghz2_per_copy == 2.0
    with pytest.raises(DisconnectedError):
        ghz_rate_bound(hypergraph(4, [{1, 2}, {3, 4}]))


def test_epr_rate_values():
    path = path_hypergraph(4)
    res = epr_rate(path, 1, 4)
    assert res.t == 1 and res.rate == Fraction(1, 1)
    res = epr_rate(cycle_hypergraph(4), 1, 3)
    assert res.t == 2 and res.rate == Fraction(1, 2)
    assert len(res.paths) == 2
    for a, b in ((1, 2), (2, 3), (1, 3)):
        assert epr_rate(K3, a, b).t == 2
    with pytest.raises(SameVertexError):
        epr_rate(path, 2, 2)
    with pytest.raises(LevelsUnsupportedError):
        epr_rate(single_full_edge(3, level=3), 1, 2)


def test_rate_convergence_markers():
    rates = []
    for n in (2, 4, 8, 16, 32):
        cert = synthesize_certificate(K3, n, seed=0)
        rates.append(cert.achieved_rate)
    assert rates == sorted(rates)
    assert all(r <= 2 for r in rates)
    assert rates[-1] >= 1.85


def test_random_synth_and_verify():
    rng = random.Random(55)
    done = 0
    while done < 6:
        h = random_connected_hypergraph(rng, kmax=4, emax=4)
        cert = synthesize_certificate(h, 2, seed=done)
        report = verify_certificate(cert, deep=True)
        assert report.ok, report.summary()
        assert cert.m_count >= counting_floor(cert.rep, 2)
        done += 1


def test_build_certificate_counts_consistently():
    rep = scalar_rep([1, 1, 1])
    g, m = choose_g(rep, 4)
    cert = build_certificate(K3, 4, rep, g, m, seed=9)
    assert cert.m_count == len(cert.solutions) == 12
    assert cert.sol_hash == solution_hash(cert.solutions)
    assert cert.seed == 9
