import hashlib
import json
import math
import random
import re
import time
import tracemalloc
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    REPEATED_KEYS,
    REVERSED_QUAD,
    corpus,
    counting_floor,
    listed_k3_n4,
    named_edges,
    random_connected_hypergraph,
    ref_apply_local_diagonal,
    ref_check_ghz_structure,
    ref_completeness,
    ref_exponent_sign,
    ref_ghz_state,
    ref_histogram,
    ref_injectivity,
    ref_kernel_points,
    ref_leading_term,
    ref_pivot_inverse,
    ref_pivot_solutions,
    ref_rank,
    ref_solutions,
    ref_synthesize,
    ref_to_json_bytes,
    repeat_key,
    reverse_quad,
    set_m,
    tamper_certificate,
    total_exponent,
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
    SameVertexError,
    TooLargeError,
)
import ghzcert.protocol
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
from ghzcert.ratlinalg import _reduce
from ghzcert.tensor import apply_local_diagonal, ghz_state
from ghzcert.protocol import (
    _dense_stages,
    _indented_json,
    _kernel_points,
    _packing,
    _pivot_blocks,
    _pivot_solutions,
    _stages,
    _unpack,
    Certificate,
    QuadraticAssignment,
    build_certificate,
    build_exponent_assignment,
    c_prime,
    choose_g,
    enumerate_solutions,
    epr_rate,
    ghz_rate_bound,
    synthesize_certificate,
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
            assert total_exponent(qa, i) == want


def test_assignment_single_edge():
    h = single_full_edge(3)
    rep = OrthRep(Graph(1), 1, ((1,),))
    qa = build_exponent_assignment(h, rep, (0,))
    assert qa.quad[0] == {(0, 0): 1}
    assert qa.quad[1] == {} and qa.quad[2] == {}
    assert qa.lin == ({}, {}, {}) and qa.const == (0, 0, 0)
    for i in range(5):
        assert total_exponent(qa, (i,)) == i * i


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
        assert total_exponent(qa, i) == direct


def test_assignment_locality():
    for _, h in corpus():
        lam = edge_connectivity(h)
        rep = find_gpor(line_graph(h), h.l - lam, seed=0)
        qa = build_exponent_assignment(h, rep, (0,) * rep.d)
        for j in range(1, h.k + 1):
            assert named_edges(qa, j) <= set(h.incident(j))


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
    back = QuadraticAssignment.from_json_dict(qa.to_json_dict())
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
    # the packed convolution behind choose_g, run through every edge on both
    # routes: each keeps the values v <= K - v lexicographically, with
    # K = (n-1) sum_e c_e, the mirror half that holds the lex-smallest mode
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
        widths, lo, start, steps = _packing(rep, n)
        half = (math.prod(widths) - 1) // 2
        never = lambda stage: False
        hist = _stages(start, steps, n, half, never)
        dense, slots = _dense_stages(start, steps, n, half, 16, never)
        counts = {s: dense >> 16 * (slots - 1 - s) & 0xFFFF for s in range(slots)}
        assert {s: cnt for s, cnt in counts.items() if cnt} == hist
        unpacked = {_unpack(key, widths, lo): cnt for key, cnt in hist.items()}
        k = [(n - 1) * sum(col) for col in zip(*vectors)]
        assert unpacked == {
            v: cnt
            for v, cnt in ref_histogram(vectors, n).items()
            if v <= tuple(x - y for x, y in zip(k, v))
        }


def _last_vector(rng: random.Random, kind: str, vectors, d: int, top: int):
    """A last edge vector whose packed step is zero, a multiple of an
    earlier vector, negative or positive (the sign of its first nonzero
    coordinate), with entries in [-top, top] unless a multiple."""
    if kind == "dependent" and vectors:
        return tuple(rng.choice((-2, -1, 1, 2)) * x for x in rng.choice(vectors))
    if kind in ("zero", "dependent") or d == 0:
        return (0,) * d
    while True:
        v = tuple(rng.randint(-top, top) for _ in range(d))
        lead = next((x for x in v if x), 0)
        if lead and (lead > 0) == (kind == "positive"):
            return v


def _spy_routes(monkeypatch) -> list[str]:
    """The names of the stage builders choose_g calls, in call order."""
    routes = []
    for name in ("_stages", "_dense_stages"):
        def spy(*args, real=getattr(ghzcert.protocol, name), name=name):
            routes.append(name)
            return real(*args)

        monkeypatch.setattr(ghzcert.protocol, name, spy)
    return routes


def test_mode_matches_the_histogram_reference(monkeypatch):
    # one int per stage up to n^l slots, a dict past it whose last edge is
    # never convolved, and a candidate that cannot beat the best so far
    # stops early: every route must leave (M, lex-smallest mode) exact
    routes = _spy_routes(monkeypatch)
    rng = random.Random(1500)
    seen = set()
    for case in range(640):
        n, d = 2 + case % 5, case // 5 % 4
        kind = ("zero", "dependent", "negative", "positive")[case // 20 % 4]
        l = rng.randint(1, 4)
        top = rng.choice((1, 3))
        vectors = [
            tuple(rng.randint(-top, top) for _ in range(d)) for _ in range(l - 1)
        ]
        vectors = tuple(vectors + [_last_vector(rng, kind, vectors, d, top)])
        rep = OrthRep(Graph(l), d, vectors)
        hist = ref_histogram(vectors, n)
        m = max(hist.values())
        g = min(v for v, c in hist.items() if c == m)
        assert choose_g(rep, n) == (g, m), (vectors, n)
        route = routes[-1]
        for beat in (0, m - 1, m, n**l):
            assert choose_g(rep, n, beat) == ((g, m) if m > beat else None), (
                vectors, n, beat
            )
        lead = next((x for x in vectors[-1] if x), 0)
        seen.add((route, d, (lead > 0) - (lead < 0)))
        seen.add((route, "dependent", kind == "dependent" and l > 1 and d > 0))
    # with d = 1, entries in [-3, 3] and a zero last vector, the box never
    # has more than n^l slots
    assert seen >= {("_dense_stages", d, 0) for d in range(4)} | {
        ("_stages", d, 0) for d in (2, 3)
    } | {
        (route, d, s)
        for route in ("_stages", "_dense_stages")
        for d in (1, 2, 3)
        for s in (-1, 1)
    } | {("_stages", "dependent", True), ("_dense_stages", "dependent", True)}


def test_mode_of_no_edges_is_the_one_grid_point():
    rep = OrthRep(Graph(0), 2, ())
    assert choose_g(rep, 3) == ((0, 0), 1)
    assert choose_g(rep, 3, beat=1) is None


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
    with pytest.raises(BadLevelError, match="level n=1 < 2"):
        enumerate_solutions(scalar_rep([1, 1]), 1, (0,))


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
            adj, den = ref_pivot_inverse(vectors[l - d:])
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


@pytest.mark.parametrize("cap", [4096, 3], ids=["chunk-4096", "chunk-3"])
def test_block_stream_matches_the_row_reference(cap, monkeypatch):
    # With a 3-entry memo it is cleared every few residuals.
    monkeypatch.setattr(ghzcert.protocol, "_MEMO_ENTRIES", cap)
    rng = random.Random(1603)
    seen = set()
    cases = []
    for case in range(300):
        n = rng.choice([2, 3, 4, 7, 11])
        vectors, den, _ = _random_pivot_case(rng, n)
        d = len(vectors[0])
        box = c_prime(OrthRep(Graph(len(vectors)), d, vectors)) * (n - 1)
        g = tuple(rng.randint(-box, box) for _ in range(d))
        cases.append((vectors, n, g))
        seen.add(("lam", min(len(vectors) - d, 2)))
        if den > 1:
            seen.add("D > 1")
    # one block longer than 4096 rows: lam = 1, and the pivot index is fixed
    cases.append((((0,), (1,)), 5000, (3,)))
    # no edges at all: the one solution is the empty tuple
    cases.append(((), 3, ()))
    for vectors, n, g in cases:
        want = list(ref_pivot_solutions(vectors, n, g))
        assert list(_pivot_solutions(vectors, n, g)) == want, (vectors, n, g)
        blocks = list(_pivot_blocks(vectors, n, g))
        assert sum(len(free) for _, free, _, _ in blocks) == len(want), (vectors, n, g)
        # a block is a range and d ints, however many rows it has
        for _, free, starts, _ in blocks:
            assert type(free) is range and free
            assert len(starts) == len(g) and all(type(p) is int for p in starts)
        if any(len(free) > 4096 for _, free, _, _ in blocks):
            seen.add("longer than 4096")
        seen.add("empty" if not want else "nonempty")
    assert seen == {
        ("lam", 0), ("lam", 1), ("lam", 2), "D > 1", "empty", "nonempty",
        "longer than 4096",
    }
    # a malformed c raises as before, from the blocks and from their rows
    for vectors, g, error in [
        (((1, 0), (0,)), (0, 0), DimMismatchError),  # ragged vectors
        (((1, 0),), (0, 0), DimMismatchError),  # fewer vectors than d
        (((1, 1), (1, 2), (2, 4)), (1, 1), NotGeneralPositionError),
    ]:
        for stream in (_pivot_solutions, _pivot_blocks):
            with pytest.raises(error):
                next(stream(vectors, 3, g))


def _repeated_residual_cases(rng: random.Random):
    """Vectors whose looped free columns are dependent, so that many pivot
    blocks share a residual: all-ones d = 1 vectors (the residual is a
    function of the prefix sum), and small entries with D > 1."""
    cases = [(((1,),) * l, n, (g,)) for l in (3, 4, 5) for n in (2, 3, 7)
             for g in (0, l * (n - 1) // 2, l * (n - 1))]
    # K4^3, whose c is all ones, at its mode and off it
    cases += [(((1,),) * 4, n, (2 * (n - 1),)) for n in (2, 5, 20)]
    cases.append((((1,),) * 4, 20, (25,)))
    while len(cases) < 60:
        d = rng.randint(1, 2)
        l = d + rng.randint(3, 4)
        vectors = tuple(tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(l))
        try:
            _, den = ref_pivot_inverse(vectors[l - d:])
        except NotGeneralPositionError:
            continue
        if den > 1:
            n = rng.choice([2, 3, 5])
            box = c_prime(OrthRep(Graph(l), d, vectors)) * (n - 1)
            cases.append((vectors, n, tuple(rng.randint(-box, box) for _ in range(d))))
    return cases


@pytest.mark.parametrize("cap", [4096, 3], ids=["memo-4096", "memo-3"])
def test_blocks_with_one_residual_share_rows_and_text(cap, monkeypatch):
    # A repeated residual reuses its solve; with a 3-entry memo it is
    # cleared every few residuals, and mostly neighbouring blocks share.
    monkeypatch.setattr(ghzcert.protocol, "_MEMO_ENTRIES", cap)
    seen = set()
    for vectors, n, g in _repeated_residual_cases(random.Random(1964)):
        want = list(ref_pivot_solutions(vectors, n, g))
        blocks = list(_pivot_blocks(vectors, n, g))
        if len({id(free) for _, free, _, _ in blocks}) < len(blocks):
            seen.add("shared")
        if ref_pivot_inverse(vectors[len(vectors) - len(g):])[1] > 1:
            seen.add("D > 1")
        assert sum(len(free) for _, free, _, _ in blocks) == len(want), (vectors, n, g)
        assert list(_pivot_solutions(vectors, n, g)) == want, (vectors, n, g)
    assert seen == {"shared", "D > 1"}
    # K4^3, whose c is all ones: the mode count is the row count, and the file
    h = complete_uniform(4, 3)
    for n in (2, 5, 20):
        rep = OrthRep(line_graph(h), 1, ((1,),) * 4)
        g, m = choose_g(rep, n)
        assert m == len(list(ref_pivot_solutions(rep.vectors, n, g)))
        cert = build_certificate(h, n, rep, g, m, 0)
        assert cert.m_count == m
        assert cert.to_json_bytes() == ref_to_json_bytes(cert)


def test_mode_count_ignores_order_and_sign():
    # Flipping c_e (i_e -> n-1-i_e) translates the value histogram and
    # reordering leaves it as it is, so synthesis scores one of each.
    rng = random.Random(1603)
    for case in range(60):
        n = rng.choice([2, 3, 4])
        vectors, _, _ = _random_pivot_case(rng, n)
        l, d = len(vectors), len(vectors[0])
        m = choose_g(OrthRep(Graph(l), d, vectors), n)[1]
        for _ in range(4):
            flipped = [v if rng.random() < 0.5 else tuple(-x for x in v) for v in vectors]
            rng.shuffle(flipped)
            other = OrthRep(Graph(l), d, tuple(flipped))
            want = max(ref_histogram(other.vectors, n).values())
            assert choose_g(other, n)[1] == m == want


SYNTHESIS_CASES = [
    (complete_uniform(4, 3), 5),
    (cycle_hypergraph(6), 3),
    (complete_uniform(4, 2), 2),
    (path_hypergraph(4), 6),
]


def test_synthesis_scores_each_representation_once(monkeypatch):
    scored = []
    mode = ghzcert.protocol.choose_g

    def counting_mode(rep, n, beat=0):
        scored.append(tuple(sorted(max(v, tuple(-x for x in v)) for v in rep.vectors)))
        return mode(rep, n, beat)

    monkeypatch.setattr(ghzcert.protocol, "choose_g", counting_mode)
    for h, n in SYNTHESIS_CASES:
        for seed in (0, 1, 2):
            scored.clear()
            synthesize_certificate(h, n, seed=seed)
            assert scored and len(set(scored)) == len(scored), (h, n, seed)


def test_search_checks_no_representation_it_already_kept(monkeypatch):
    """Each representation that gpor_candidates yields to synthesis is the
    one verify_orthrep passed just before, and none is checked again once
    yielded: the representations that pass, in order, are the ones yielded."""
    passed = []
    verify, search = ghzcert.gpor.verify_orthrep, ghzcert.protocol.gpor_candidates

    def counting_verify(rep):
        report = verify(rep)
        if report.ok:
            passed.append(rep)
        return report

    def checked_search(*args, **kwargs):
        passed.clear()
        yielded = []
        for rep in search(*args, **kwargs):
            assert rep not in yielded
            yielded.append(rep)
            assert passed == yielded and passed[-1] is rep
            yield rep
        assert passed == yielded

    monkeypatch.setattr(ghzcert.gpor, "verify_orthrep", counting_verify)
    monkeypatch.setattr(ghzcert.protocol, "gpor_candidates", checked_search)
    for h, n in SYNTHESIS_CASES:
        for seed in (0, 1, 2):
            synthesize_certificate(h, n, seed=seed)


def _count_checks(monkeypatch):
    """A list that grows by one per verify_orthrep call of the search."""
    calls = []
    verify = ghzcert.gpor.verify_orthrep

    def counting_verify(rep):
        calls.append(rep)
        return verify(rep)

    monkeypatch.setattr(ghzcert.gpor, "verify_orthrep", counting_verify)
    return calls


def _equivalence_cases():
    for _, h in corpus():
        for n in (2, 3, 4):
            for seed in (0, 1, 2):
                yield h, n, seed
    yield cycle_hypergraph(6), 6, 0
    yield complete_uniform(4, 3), 20, 0
    yield complete_uniform(4, 2), 11, 0
    rng = random.Random(3900)
    for _ in range(30):
        h = random_connected_hypergraph(rng, kmax=6)
        seed = rng.randrange(100)
        for n in (2, 3):
            yield h, n, seed


def test_synthesis_that_stops_early_writes_the_scored_list_certificate(
    monkeypatch,
):
    # synthesis stops the search once the best M is n^lam or d = 1; the
    # reference scores every candidate of the whole list
    calls = _count_checks(monkeypatch)
    stops = {"n^lam": 0, "d = 1": 0, "none": 0}
    for h, n, seed in _equivalence_cases():
        want = ref_synthesize(h, n, seed=seed)
        listed = len(calls)
        calls.clear()
        cert = synthesize_certificate(h, n, seed=seed)
        assert cert.to_json_bytes() == want.to_json_bytes(), (h, n, seed)
        if len(calls) == listed:
            stops["none"] += 1
        elif cert.d == 1:
            stops["d = 1"] += 1
        else:
            assert cert.m_count == n**cert.lam, (h, n, seed)
            stops["n^lam"] += 1
        calls.clear()
    assert all(stops.values()), stops


@pytest.mark.parametrize("h, n, seed, checks", [
    (path_hypergraph(4), 3, 19, 1),  # M = 3 = n^lam from the first candidate
    (complete_uniform(4, 3), 20, 0, 1),  # d = 1
    (cycle_hypergraph(4), 4, 5, 4),  # M = 8, 4, 2, 2 under n^lam = 16
])
def test_synthesis_checks_no_candidate_past_the_stop(monkeypatch, h, n, seed, checks):
    calls = _count_checks(monkeypatch)
    synthesize_certificate(h, n, seed=seed)
    assert len(calls) == checks


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


def test_grid_guard_builds_no_power_past_the_limit():
    # (10^4000)^2000 alone took seconds to build before it was compared
    rep = scalar_rep([1] * 2001)
    start = time.perf_counter()
    with pytest.raises(GridTooLargeError) as err:
        enumerate_solutions(rep, 10**4000, (0,))
    assert time.perf_counter() - start < 1.0
    assert (err.value.n, err.value.l) == (10**4000, 2001)
    assert "^2001 is over the limit 100000000" in str(err.value)


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


# sha256 of `ghzcert certify --n N --seed 0` output, captured before counting
# moved from a depth-first search to the pivot solve; a certificate's bytes
# must not depend on how its solutions were found.  Re-captured when
# certificates stopped listing up to 10^4 solutions: each file is the one
# captured then with its "solutions" list replaced by {"count": M, "hash":
# sha256 of that list's compact JSON}.  Re-captured again when certificates
# dropped the hash: each file is the one before with only the "hash" entry
# of "solutions" removed.
GOLDEN_CERTIFY_SHA256 = [
    ("K3", cycle_hypergraph(3), 4,
     "75bec2a5153dee363e7b50c8a3019bd450a4ff1f458b95776816c670a6a36ac1"),
    ("full3", single_full_edge(3), 3,
     "35e6c5a3e640c815e1d3ac1c8b781902ae4eee965fce999a6596f793a0f37fba"),
    ("C6", cycle_hypergraph(6), 6,
     "a1f4bab78a74d3122b641778246d824ad0ac414c5de2e9cd18c64f24f90230ff"),
    ("C4", cycle_hypergraph(4), 32,
     "26c28f942998c739cf1a05530642f0e74227333c51f2de259e9f57a15e340aee"),
    ("K4^3", complete_uniform(4, 3), 20,
     "60c1d31259ef7868e32732496464ac46df3557bf0aca0b87d2635eca3620a1c2"),
    ("K4^3", complete_uniform(4, 3), 32,
     "78455e186dc351f9f9d48b482f29adde27985caa4d8f6e7dbde88ad3ac3df6c0"),
    # captured while the mode was still read off the full histogram: C6 at
    # n = 11 from one representation (four give the same bytes), K4^2 at
    # n = 4 from eight scored candidates
    ("C6", cycle_hypergraph(6), 11,
     "5c206db90cc744e3e9d481c6972e14a3da2a65b3e1411173fe92ed54253198cc"),
    ("K4^2", complete_uniform(4, 2), 4,
     "fc4db082834bb3eab1ee084aeb8bc8de9cb6e9b11fab2c5aa69b4fdf0a54ade5"),
]


# sha256 of synthesize_certificate(h, n, seed=0).to_json_bytes(), captured
# while solutions were still enumerated row by row and formatted twice, once
# for the hash and once for the file, and re-captured as above.
GOLDEN_CERTIFICATE_BYTES = {
    ("K3", 2): "507cf8e87fe2d62dbe800b1936719e9444f04d49effab3626ac45403c04fa4b2",
    ("K3", 3): "dd54644276d112f85cfb8c7b5bd1b56296f9b6f6fecb317bf6a9b6894be88d23",
    ("K3", 4): "75bec2a5153dee363e7b50c8a3019bd450a4ff1f458b95776816c670a6a36ac1",
    ("C4", 2): "676f2de83269304243490794c5d725a722aafcc791296aea869683e02025a334",
    ("C4", 3): "670e11ea1a47e52d837c51978299d09e9c3138ea7472043124f841399871f020",
    ("C4", 4): "9dcc184a2f75002589fc1f89f671288e551a406937633d27509e9e2cfcb2617a",
    ("C5", 2): "bdd696eb8a1f0b7f6c388980d047d4262765ecf2da941da3b432d3fabb390e6f",
    ("C5", 3): "42f28d529a3736fb9d00ac0ddc8c62071bbf6a58a71f0d814da033c39156b574",
    ("C5", 4): "e7450f2edb1e8852c32ed6b66fa8256f60a0113f5f7d0a690f93cc2872c2db6d",
    ("K4^2", 2): "d2c04734eb67859d70e398082df0febb67ca32739c20b796a8f1ec1062422a77",
    ("K4^2", 3): "4335887890d4a3e1c7df24e2fb42a6a3a5d668d95037a19c91bee0bc01483960",
    ("K4^2", 4): "fc4db082834bb3eab1ee084aeb8bc8de9cb6e9b11fab2c5aa69b4fdf0a54ade5",
    ("K4^3", 2): "338b4035103c266afe35e2598676af51cca6b47165a682602c1fb63859f2cee0",
    ("K4^3", 3): "3df67a245edfb5aa3ed1bd377b0cc9372154e6e3f1a51c43c24d68aa8698cbec",
    ("K4^3", 4): "d87890de6d482b6f4ee9eef10a1d00b08be9353aef8fe9f947795e5bd1bd2f09",
    ("path3", 2): "95898a9229a908779672149c8e6f9034a5950bc4d750045d60bc508e57ff2c31",
    ("path3", 3): "f565d26a6b602572c1400e691759a27912954df2043cb529a811775928ffdc77",
    ("path3", 4): "4cce108f0d32ac0cd38b299faa3d8997440b01e158da3b9ba98adc340b3aaf85",
    ("path4", 2): "c9932c48719125e76f299b2862fceafe24d97be12d5c02a74c88cee207bbcb00",
    ("path4", 3): "9d5b9c483dff00a89a041ff5becbb69adffc8624ed2076d98a6359200113d714",
    ("path4", 4): "edd24deec9b1e711cdcc3dff50301493065762039727ca800f7f8a55ce5284f7",
    ("path5", 2): "1be487366c6e4103efe805517add6c932e05c175ee3bbf1bc904193af8e3505f",
    ("path5", 3): "737778c1f17f65b609cf0eaf123d328141d46f6ea81b9e6a0f0e49f8d70ce7c5",
    ("path5", 4): "9925529ec6b1894b1dc3b4e2958e2e3b22309962754f47020ea6e64ace97598c",
    ("full3", 2): "9114e9dc58173b6b44ee0f58bff5790a99fad96670f2da2b98fc8204422d9bec",
    ("full3", 3): "35e6c5a3e640c815e1d3ac1c8b781902ae4eee965fce999a6596f793a0f37fba",
    ("full3", 4): "8beeccaf2dbabff61f31f465ff61b97eef141e32102cb4318a31a6be249c1fe5",
    ("C6", 6): "a1f4bab78a74d3122b641778246d824ad0ac414c5de2e9cd18c64f24f90230ff",
    ("C6", 11): "5c206db90cc744e3e9d481c6972e14a3da2a65b3e1411173fe92ed54253198cc",
    ("C4", 32): "26c28f942998c739cf1a05530642f0e74227333c51f2de259e9f57a15e340aee",
    ("K4^3", 20): "60c1d31259ef7868e32732496464ac46df3557bf0aca0b87d2635eca3620a1c2",
    ("K4^3", 32): "78455e186dc351f9f9d48b482f29adde27985caa4d8f6e7dbde88ad3ac3df6c0",
}


def test_certificate_bytes_golden():
    instances = dict(corpus(), C6=cycle_hypergraph(6))
    for (name, n), digest in GOLDEN_CERTIFICATE_BYTES.items():
        cert = synthesize_certificate(instances[name], n, seed=0)
        blob = cert.to_json_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, (name, n)


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


def test_k3_certifies_the_strassen_optimum():
    # K3 at level n is the matrix multiplication tensor <n,n,n>, which
    # degenerates to a GHZ of ceil(3n^2/4) levels (Strassen 1987) and to
    # none larger (Kopparty-Moshkovitz-Zuiddam 2020)
    for seed in (0, 1, 2):
        for n in range(2, 41):
            m = synthesize_certificate(K3, n, seed=seed).m_count
            assert m == -(-3 * n * n // 4), (n, seed)


def test_synthesize_deterministic():
    a = synthesize_certificate(cycle_hypergraph(4), 4, seed=3)
    b = synthesize_certificate(cycle_hypergraph(4), 4, seed=3)
    assert a.to_json_bytes() == b.to_json_bytes()


def test_synthesis_keeps_the_first_candidate_with_the_largest_mode():
    # the one search, spelled out with choose_g per candidate: the same
    # candidates at every grid size, 11^6 points for K4^2 at n = 11 included
    ties = 0
    for h, n in [(cycle_hypergraph(6), 3), (cycle_hypergraph(4), 5),
                 (complete_uniform(4, 2), 2), (K3, 7), (path_hypergraph(4), 6),
                 (complete_uniform(4, 2), 11)]:
        lg, d = line_graph(h), h.l - edge_connectivity(h)
        for seed in (0, 1, 2):
            reps = list(gpor_candidates(lg, d, seed=seed))
            assert len(reps) <= 4
            scored = [(choose_g(rep, n), rep) for rep in reps]
            (g, m), rep = max(scored, key=lambda item: item[0][1])
            ties += sum(gm[1] == m for gm, _ in scored) > 1
            cert = synthesize_certificate(h, n, seed=seed)
            assert (cert.g, cert.m_count, cert.rep) == (g, m, rep), (h, n, seed)
    assert ties


@pytest.mark.parametrize("seed, m, cprime", [(0, 7, 33), (1, 14, 21), (2, 11, 30)])
def test_large_grid_synthesis_starts_from_small_entries(seed, m, cprime):
    # 11^6 grid points score four candidates, as small grids do (the first
    # alone gave M = 1, 3 and 6); the search tries entries in [-3, 3]
    # before [-1000, 1000], which gave M = 1 with C' = 413,387,906 at seed 1
    cert = synthesize_certificate(complete_uniform(4, 2), 11, seed=seed)
    assert (cert.m_count, cert.cprime) == (m, cprime)
    assert verify_certificate(cert).ok


def test_histograms_out_of_memory_are_too_large(monkeypatch, tmp_path, capsys):
    # K6^2 at n = 3 under a 2 GB address-space cap ran out of memory in the
    # last stage's sort and ended in a bare MemoryError, exit 1; K3 at n = 3
    # is counted in one int, C6 at n = 3 in dicts
    def out_of_memory(*args):
        raise MemoryError

    for route, h, name in (
        ("_dense_stages", K3, "k3"),
        ("_stages", cycle_hypergraph(6), "c6"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(ghzcert.protocol, route, out_of_memory)
            with pytest.raises(TooLargeError) as err:
                synthesize_certificate(h, 3)
            assert str(err.value) == (
                f"the value histograms of {h.l} edges at n=3 ran out of memory"
            )
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(h.to_json_dict()))
            assert cli_run(["certify", str(path), "--n", "3"]) == 3
            assert json.loads(capsys.readouterr().err)["code"] == "TooLarge"


def test_the_dense_route_holds_four_half_box_ints_at_most():
    # the loop over the stages held the previous stage while the next was
    # built: five ints of half the box at the peak, where four are needed
    rep = find_gpor(line_graph(cycle_hypergraph(6)), 4, seed=0)
    n = 13
    widths, _, _, _ = _packing(rep, n)
    slots = math.prod(widths)
    assert slots <= n**6  # the dense route
    slot_bytes = -(-(n ** (6 - 4)).bit_length() // 8)
    half_int = ((slots - 1) // 2 + 1) * slot_bytes
    tracemalloc.start()
    try:
        choose_g(rep, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3.5 * half_int < peak < 4.5 * half_int


def test_a_half_box_under_n_to_the_l_slots_is_counted_in_one_int(monkeypatch):
    # the route depends on c and n alone: one int when the lower half box
    # that is built has fewer than n^l slots, dicts from n^l on
    routes = _spy_routes(monkeypatch)
    # half boxes of 4, 3, 8 and 3 slots against n^l = 5, 3, 9 and 3
    for c, n, route in (((2,), 5, "_dense_stages"), ((2,), 4, "_dense_stages"),
                        ((3, 5), 3, "_dense_stages"), ((3,), 3, "_stages"),
                        ((4, 5), 3, "_stages"), ((2, 7), 3, "_stages")):
        rep = OrthRep(Graph(len(c)), 1, tuple((x,) for x in c))
        widths, _, _, _ = _packing(rep, n)
        half = (widths[0] - 1) // 2
        assert half == n ** len(c) - (route == "_dense_stages"), c
        choose_g(rep, n)
        assert routes.pop() == route, c
    # past the half box the kernel bound settles this candidate, N = 1,
    # before either route is entered
    thousands = OrthRep(Graph(6), 4, (
        (-3, 0, -1, -2), (0, 2, 1, -3), (-15, 28, 9, 18),
        (303, -278, -323, -293), (-2, -3, 6, 0), (5836, 1059, 3012, 1710),
    ))  # a C6 candidate from [-1000, 1000]^4, seed 67
    assert choose_g(thousands, 6) == ((-100, 125, 70, 80), 1)
    assert choose_g(thousands, 6, beat=1) is None
    assert routes == []
    # the two certify commands of the benchmark above a 10^6 grid whose
    # boxes fit: the dict route is never entered
    def no_dicts(*args):
        raise AssertionError("the dict route ran")

    monkeypatch.setattr(ghzcert.protocol, "_stages", no_dicts)
    for h, n, seed, m in ((cycle_hypergraph(6), 11, 68, 31),
                          (cycle_hypergraph(4), 32, 69, 512)):
        assert synthesize_certificate(h, n, seed=seed).m_count == m


def _spy_kernel(monkeypatch) -> list:
    """The outcome of each _kernel_points call: N, or the error it raised."""
    seen = []

    def spy(*args, real=ghzcert.protocol._kernel_points):
        try:
            seen.append(real(*args))
        except GhzcertError as err:
            seen.append(type(err))
            raise
        return seen[-1]

    monkeypatch.setattr(ghzcert.protocol, "_kernel_points", spy)
    return seen


def test_the_kernel_bound_agrees_with_the_histogram_on_random_candidates(
    monkeypatch,
):
    # two grid points with one value differ by a kernel vector in
    # [-(n-1), n-1]^l, so N >= M; at N = 1 every value has one point and the
    # lowest slot is the mode; with the bound taken before every dict route,
    # choose_g is None exactly when M <= beat
    rng = random.Random(3500)
    outcomes = set()
    exact = 0
    for _ in range(60):
        h = random_connected_hypergraph(rng, kmax=5, emax=6)
        n = rng.randint(2, 5)
        d = h.l - edge_connectivity(h)
        if n**h.l > 10**5:
            continue
        for rep in gpor_candidates(line_graph(h), d, seed=rng.randrange(100)):
            with monkeypatch.context() as patch:
                patch.setattr(ghzcert.protocol, "_bound_first", lambda *a: False)
                g, m = choose_g(rep, n)
            bound = _kernel_points(rep.vectors, n)
            assert bound >= m, (rep.vectors, n)
            if (2 * n - 1) ** h.l <= 3000:
                assert bound == ref_kernel_points(rep.vectors, n)
                exact += 1
            if bound == 1:
                widths, lo, start, _ = _packing(rep, n)
                assert _unpack(start, widths, lo) == g
            with monkeypatch.context() as patch:
                patch.setattr(ghzcert.protocol, "_BLOCK_COST", 0)
                seen = _spy_kernel(patch)
                for beat in (m - 1, m):
                    found = choose_g(rep, n, beat)
                    assert found == ((g, m) if m > beat else None), (rep, n, beat)
                    if seen:
                        outcomes.add((seen.pop() <= beat, found is None))
    # skipped (N <= beat), settled at N = 1, and fallen through to the
    # histogram, which answered either way
    assert outcomes == {(True, True), (False, False), (False, True)}
    assert exact >= 100


def test_the_kernel_bound_leaves_non_gpor_inputs_to_the_histogram(monkeypatch):
    # with fewer edges than coordinates or no free edge (lam <= 0) the bound
    # is not tried, and a dependent pivot block makes _pivot_blocks raise;
    # each falls through to the dict histogram, even where the bound is
    # tried before every dict route
    cases = (
        ("l < d", ((3, 1, 0), (0, 2, 3)), None),
        ("lam = 0", ((3, 1), (1, -3)), None),
        ("dependent pivots", ((1, 2), (2, 1), (4, 2)), NotGeneralPositionError),
    )
    routes = _spy_routes(monkeypatch)
    seen = _spy_kernel(monkeypatch)
    for cost in (256, 0):
        monkeypatch.setattr(ghzcert.protocol, "_BLOCK_COST", cost)
        for kind, vectors, raised in cases:
            rep = OrthRep(Graph(len(vectors)), len(vectors[0]), vectors)
            hist = ref_histogram(vectors, 3)
            m = max(hist.values())
            g = min(v for v, c in hist.items() if c == m)
            for beat in (0, m - 1, m):
                assert choose_g(rep, 3, beat) == ((g, m) if m > beat else None)
                assert routes.pop() == "_stages", kind
                tried = raised is not None and cost == 0
                assert seen == ([raised] if tried else []), kind
                seen.clear()


def test_k6_squared_at_n3_is_settled_by_the_kernel_bound(monkeypatch):
    # 3^15 grid points: the dict histograms ran for over 10 s and could end
    # in TooLarge, while the kernel bound N = 1 takes milliseconds: it
    # settles the first candidate's M = 1 and skips the others
    def no_histogram(*args):
        raise AssertionError("a histogram ran")

    monkeypatch.setattr(ghzcert.protocol, "_stages", no_histogram)
    monkeypatch.setattr(ghzcert.protocol, "_dense_stages", no_histogram)
    cert = synthesize_certificate(complete_uniform(6, 2), 3)
    assert cert.m_count == 1
    assert verify_certificate(cert).ok


def test_synthesis_checks_the_banded_representation_once(monkeypatch):
    checked = []
    verify = ghzcert.gpor.verify_orthrep

    def counting_verify(rep):
        checked.append(rep.vectors)
        return verify(rep)

    monkeypatch.setattr(ghzcert.gpor, "verify_orthrep", counting_verify)
    synthesize_certificate(K3, 4, seed=0)
    assert checked.count(((1,), (1,), (1,))) == 1
    checked.clear()
    synthesize_certificate(cycle_hypergraph(6), 6, seed=0)
    assert len(checked) == 4 and len(set(checked)) == 4


def test_synthesis_falls_back_to_large_entries():
    # no start of the first stage (the banded seed, then entries in
    # [-3, 3]) verifies here; the bytes were captured before the search
    # became one policy
    h = hypergraph(3, [{1, 2, 3}, {2, 3}, {1, 2}, {1, 2, 3}, {1, 3}, {1, 2, 3}, {2, 3}])
    cert = synthesize_certificate(h, 2, seed=2)
    assert (cert.cprime, cert.m_count) == (4135, 1)
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == (
        "dd8d0a376180789e7b6e29e3020464507d905894afd78df2c0b4b5b60bef33b6"
    )


def test_synthesize_rejects_bad_inputs():
    with pytest.raises(DisconnectedError):
        synthesize_certificate(hypergraph(4, [{1, 2}, {3, 4}]), 2)
    with pytest.raises(BadLevelError):
        synthesize_certificate(K3, 1)
    with pytest.raises(LevelsUnsupportedError):
        synthesize_certificate(hypergraph(2, [{1, 2}], [3]), 2)


@pytest.mark.parametrize("n", [0, -1, 1, 3.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "entry",
    [
        "choose_g", "enumerate_solutions", "synthesize_certificate", "ghz_state",
        "build_certificate",
    ],
)
def test_every_entry_point_refuses_a_level_below_2_or_not_an_int(entry, n, monkeypatch):
    # The level is refused before any work: no lambda scan, no search.
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the level check")

    monkeypatch.setattr(ghzcert.protocol, "edge_connectivity", no_work)
    rep = scalar_rep([1, 1])
    call = {
        "choose_g": lambda: choose_g(rep, n),
        "enumerate_solutions": lambda: enumerate_solutions(rep, n, (1,)),
        "synthesize_certificate": lambda: synthesize_certificate(K3, n),
        "ghz_state": lambda: ghz_state(K3, n),
        "build_certificate": lambda: build_certificate(K3, n, rep, (1,), 1, 0),
    }[entry]
    want = f"level n={n} < 2" if type(n) is int else f"level n={n!r} is not an integer"
    with pytest.raises(BadLevelError, match=f"^{re.escape(want)}$"):
        call()


def test_certificate_round_trip():
    cert = synthesize_certificate(K3, 4, seed=0)
    obj = json.loads(cert.to_json_bytes())
    back = Certificate.from_json_dict(obj)
    assert back == cert
    assert back.to_json_bytes() == cert.to_json_bytes()


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
        ("K4^3", complete_uniform(4, 3), 32),
    ]:
        yield f"{name}-n{n}", synthesize_certificate(h, n, seed=0)
    yield "K3-n4-listed", Certificate.from_json_dict(listed_k3_n4())


def test_to_json_bytes_matches_the_indenting_encoder():
    seen_d0 = 0
    for key, cert in _serialization_cases():
        assert cert.to_json_bytes() == ref_to_json_bytes(cert), key
        seen_d0 += cert.to_json_dict()["c"][0] == []  # full3: d = 0
    assert seen_d0


def _random_json_value(rng: random.Random, depth: int):
    """A nested value of the kinds json writes: dicts with str keys, lists
    and tuples (int-only or mixed), empty containers, ints of every size,
    floats, non-ASCII strings, bools and None."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([0, -1, 7, -(10**30), 10**200 + 1, rng.randint(-999, 999)])
    if kind == 1:
        return rng.choice([0.0, -0.0, 0.1, -2.5e-300, 1e300, 3.0, math.log2(7),
                           math.inf, -math.inf, math.nan])
    if kind == 2:
        return "".join(rng.choice('ab"\\/\n\té€😀\x00') for _ in range(rng.randrange(5)))
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return [rng.randint(-(10**25), 10**25) for _ in range(rng.randrange(4))]
    if kind == 5:
        return tuple(rng.randint(-3, 3) for _ in range(rng.randrange(3)))
    if kind in (6, 7):
        items = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if kind == 6 else tuple(items)
    keys = ["", "a", "B", "é", "z\u00ff", "key", "10", "2"]
    return {k: _random_json_value(rng, depth + 1) for k in rng.sample(keys, rng.randrange(5))}


def test_indented_json_matches_json_dumps():
    rng = random.Random(3101)
    for _ in range(3000):
        obj = _random_json_value(rng, 0)
        assert _indented_json(obj, "") == json.dumps(obj, indent=2, sort_keys=True), obj
    # keys that are not str, and subclasses of int and dict, go through
    # json.dumps, nested at any depth
    odd = ({1: [2], 3: {None: 1.5}}, [[{2: "b", 1: "a"}]], {"f": [False, 1]},
           {"o": OrderedDict(b=[], a={})}, [[IntEnum("E", "X").X, 2]])
    for obj in odd:
        assert _indented_json(obj, "") == json.dumps(obj, indent=2, sort_keys=True)


def test_certificate_schema_fields():
    cert = synthesize_certificate(K3, 4, seed=0)
    obj = cert.to_json_dict()
    assert obj["lambda"] == 2 and obj["d"] == 1
    assert obj["c"] == [[1], [1], [1]]
    assert obj["M"] == 12 and obj["n"] == 4
    assert obj["version"] == "1"
    assert obj["bound_rate"] == 2
    assert set(obj["achieved_rate"]) == {"log2_M", "log2_n"}
    assert obj["solutions"] == {"count": 12}
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
    # each of these verified ok while integer fields went through int();
    # a row of solutions is one of a listed version-1 file
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    if path[0] == "solutions":
        obj = listed_k3_n4()
    with pytest.raises(TypeError):
        Certificate.from_json_dict(_set_field(obj, path, value))


@pytest.mark.parametrize(
    "version", [[7], 2, "2", None], ids=["list", "int", "string-2", "missing"]
)
def test_certificate_parse_accepts_only_version_string_1(version):
    # each verified ok while version went through str(obj.get("version", "1"))
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    with pytest.raises(ValueError, match='version must be the string "1"'):
        Certificate.from_json_dict(obj)


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_certificate_parse_rejects_repeated_keys(case):
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    with pytest.raises(ValueError, match=re.escape(REPEATED_KEYS[case][2])):
        Certificate.from_json_dict(repeat_key(obj, case))


def test_certificate_parse_rejects_a_reversed_quad_key():
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    with pytest.raises(ValueError, match=re.escape(REVERSED_QUAD[3])):
        Certificate.from_json_dict(reverse_quad(obj))


def test_hash_only_certificate_parse_accepts_only_integers():
    obj = synthesize_certificate(path_hypergraph(2), 20000, seed=0).to_json_dict()
    for path, value in [(("solutions", "count"), 20000.0), (("M",), 20000.5)]:
        with pytest.raises(TypeError):
            Certificate.from_json_dict(_set_field(obj, path, value))


def test_hash_only_certificate_parse_rejects_m_other_than_its_count():
    # K4^3 at n = 32 states only its count; M alone raised by 5 used to parse
    # to the honest certificate, verify ok and re-serialize to the honest
    # bytes
    obj = synthesize_certificate(complete_uniform(4, 3), 32, seed=0).to_json_dict()
    assert isinstance(obj["solutions"], dict)
    with pytest.raises(ValueError, match="M 21861 != solution count 21856"):
        Certificate.from_json_dict(_set_field(obj, ("M",), obj["M"] + 5))


@pytest.mark.parametrize(
    "path, value",
    [
        (("achieved_rate", "log2_M"), 100.0),
        (("achieved_rate", "log2_M"), math.log2(13)),
        (("achieved_rate", "log2_n"), 3.0),
        (("achieved_rate", "log2_n"), 2),  # an int, though log2(4) == 2
        (("bound_rate",), 7),
        (("M",), 0),
    ],
)
def test_certificate_parse_rejects_a_rate_other_than_its_counts(path, value):
    # K3 at n = 4 stating log2_M 100 and bound_rate 7 verified ok: the
    # stated rate was written but never read
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    with pytest.raises(ValueError, match=f"{path[-1]} "):
        Certificate.from_json_dict(_set_field(obj, path, value))


def test_verify_cost_does_not_grow_with_k():
    # K3 at n = 4 claiming k = 200,000 took 1.8 s to be rejected, one rank
    # per vertex; each distinct away-set is now ranked once
    obj = synthesize_certificate(K3, 4, seed=0).to_json_dict()
    obj["hypergraph"]["k"] = 10**7
    cert = Certificate.from_json_dict(obj)
    for deep in (False, True):
        start = time.perf_counter()
        report = verify_certificate(cert, deep=deep)
        assert time.perf_counter() - start < 1.0
        assert not report.ok
        assert report.check("decodability").detail == (
            "dependent away-set at the 9999997 vertices in no edge (4..10000000)"
        )
        if deep:
            assert report.check("degeneration").detail == (
                "3 vertex shares for 10000000 vertices"
            )


def test_decodability_names_the_vertices_in_no_edge_as_runs():
    cert = synthesize_certificate(K3, 4, seed=0)
    h = hypergraph(7, [{1, 2}, {2, 5}, {1, 3}])
    # vertices 3 and 5 have two edges away each, dependent in d = 1
    report = verify_certificate(cert._replace(hypergraph=h))
    assert report.check("decodability").detail == (
        "dependent away-sets at vertices [3, 5]; dependent away-set at the 3 "
        "vertices in no edge (4, 6..7)"
    )


def test_solution_cap_keeps_count_and_hash():
    # single level-2 edge: every grid point is a solution, M = n
    h = path_hypergraph(2)
    cert = synthesize_certificate(h, 20000, seed=0)
    assert cert.m_count == 20000
    obj = cert.to_json_dict()
    assert obj["solutions"] == {"count": 20000}
    back = Certificate.from_json_dict(obj)
    assert back == cert
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


def test_verify_skips_deep_above_its_grid_and_names_only_its_checks():
    # C6 at n = 11 has 11^6 > 10^6 grid points: the other checks recompute
    # every claim, and the deep simulation is not attempted
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    report = verify_certificate(cert, deep=True)
    assert report.ok
    deep = report.check("degeneration")
    assert (deep.status, deep.detail) == ("skipped", "grid too large for deep check")
    with pytest.raises(KeyError):
        report.check("solution_hash")


def test_deep_out_of_memory_is_skipped_not_failed(monkeypatch):
    def out_of_memory(h, n):
        raise MemoryError

    monkeypatch.setattr(ghzcert.protocol, "ghz_state", out_of_memory)
    cert = synthesize_certificate(K3, 4, seed=0)
    report = verify_certificate(cert, deep=True)
    assert report.ok
    deep = report.check("degeneration")
    assert (deep.status, deep.detail) == ("skipped", "out of memory on the 4^3 grid")
    obj = cert.to_json_dict()
    set_m(obj, obj["M"] + 1)
    obj["solutions"]["count"] += 1
    tampered = verify_certificate(Certificate.from_json_dict(obj), deep=True)
    assert [c.name for c in tampered.checks if c.status == "fail"] == ["counting"]
    assert tampered.check("degeneration").status == "skipped"


def test_deep_check_at_the_grid_cap_stays_in_memory_bounds():
    # C6 at n = 10 has 10^6 grid points, the deep check's cap.  A list of
    # 10^6 exponents alone takes about 36 MB, so the check may hold no list
    # with one item per grid point.
    cert = synthesize_certificate(cycle_hypergraph(6), 10, seed=0)
    tracemalloc.start()
    try:
        report = verify_certificate(cert, deep=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.check("degeneration").status == "pass"
    assert peak < 32 * 2**20


def test_verify_catches_zeroed_vector():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad_rep = cert.rep._replace(vectors=((0,), (1,), (1,)))
    bad = cert._replace(rep=bad_rep)
    report = verify_certificate(bad)
    assert report.check("orthogonal_representation").status == "fail"
    assert report.check("decodability").status == "fail"
    assert not report.ok


def test_verify_catches_shifted_g():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad = cert._replace(g=(cert.g[0] + 1,))
    report = verify_certificate(bad)
    assert report.check("exponent_sign").status == "fail"
    # g = 5 has 12 solutions, as g = 4 has, so M is true; counting failed on
    # the solution hash while certificates carried one
    assert report.check("counting").status == "pass"
    assert not report.ok


def test_verify_catches_wrong_m():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad = cert._replace(m_count=cert.m_count + 1)
    report = verify_certificate(bad)
    assert report.check("counting").status == "fail"


def test_verify_catches_tampered_assignment():
    cert = synthesize_certificate(K3, 4, seed=0)
    quad = list(cert.assignment.quad)
    quad[0] = dict(quad[0])
    quad[0][(0, 0)] += 1
    bad_qa = cert.assignment._replace(quad=tuple(quad))
    bad = cert._replace(assignment=bad_qa)
    report = verify_certificate(bad)
    assert report.check("completeness").status == "fail"


def test_verify_survives_malformed_vectors():
    cert = synthesize_certificate(K3, 4, seed=0)
    bad_rep = cert.rep._replace(vectors=((1,), (1,)))
    bad = cert._replace(rep=bad_rep)
    report = verify_certificate(bad)  # must report, not raise
    assert not report.ok
    rep_check = report.check("orthogonal_representation")
    assert rep_check.status == "fail"
    assert rep_check.detail == "c has 2 vectors, hypergraph has 3 edges"


def test_verify_fails_counting_when_pivots_are_dependent():
    cert = synthesize_certificate(cycle_hypergraph(4), 3, seed=0)
    vectors = cert.rep.vectors[:2] + ((1, 1), (2, 2))
    bad = cert._replace(rep=cert.rep._replace(vectors=vectors))
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
    bad = cert._replace(g=g, rep=cert.rep._replace(vectors=vectors))
    report = verify_certificate(bad)
    assert not report.ok
    counting = report.check("counting")
    assert counting.status == "fail" and "DimMismatch" in counting.detail


def test_verify_rejects_listed_count_above_n_to_the_lambda():
    # K3 at n = 2: M = 3 <= n^lambda = 4.  Claim the whole grid instead.
    cert = synthesize_certificate(K3, 2, seed=0)
    grid = tuple(product(range(2), repeat=3))
    bad = cert._replace(m_count=len(grid))
    counting = verify_certificate(bad).check("counting")
    assert counting.status == "fail"
    assert "M 8 above n^lambda = 4" in counting.detail


def test_verify_rejects_a_count_between_the_two_floors():
    # K3 at n = 2 has C' = 3 and d = 1: the 8 grid points fall in 7 boxes,
    # so M >= 2; M = 1 would pass a floor taken over 8 boxes
    cert = synthesize_certificate(K3, 2, seed=0)
    assert (cert.cprime, cert.rep.d, cert.m_count) == (3, 1, 3)
    counting = verify_certificate(cert._replace(m_count=1)).check("counting")
    assert counting.status == "fail"
    assert "M 1 below floor 2" in counting.detail


def test_verify_rejects_hash_only_count_above_n_to_the_lambda():
    # C6 at n = 11 (a 1.77e6 grid): M = 10^5 claims rate 4.8 against
    # lambda = 2.
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    bad = cert._replace(m_count=100000)
    report = verify_certificate(bad)
    assert not report.ok
    assert "M 100000 above n^lambda = 121" in report.check("counting").detail


class _WatchedLevel(int):
    """A level n that refuses to form a power or product of itself with
    more than ``most`` bits, and records each one it refuses."""

    most = 0
    refused: list[int] = []

    def _formed(self, bits: int) -> None:
        if bits > self.most:
            self.refused.append(bits)
            raise AssertionError(f"a {bits}-bit power of n")

    def __pow__(self, e, mod=None):
        self._formed(e * self.bit_length())
        return int.__pow__(int(self), e, mod)

    def __rmul__(self, other):
        self._formed(self.bit_length() + int(other).bit_length())
        return int.__mul__(int(self), other)

    __mul__ = __rmul__


def test_verify_bounds_the_counting_check_at_a_huge_level(monkeypatch):
    # 400 edges at n = 10^4000: the floor built n^400 in full and divided
    # it, over a second, though the recount was refused at once.  No power
    # of n past n^4 is formed now.
    h = hypergraph(2, [{1, 2}] * 400)
    rep = OrthRep(line_graph(h), 1, ((1,),) * 400)
    n = _WatchedLevel(10**4000)
    monkeypatch.setattr(_WatchedLevel, "most", 4 * n.bit_length())
    monkeypatch.setattr(_WatchedLevel, "refused", [])
    # build_certificate refuses a level that is not an int, so the watched
    # level goes in afterwards
    cert = build_certificate(h, 2, rep, (0,), 1, 0)._replace(n=n)
    counting = verify_certificate(cert).check("counting")
    assert _WatchedLevel.refused == []
    assert counting.status == "fail"
    assert "M 1 below floor ceil(n^400 / (2*400*(n-1)+1)^1)" in counting.detail
    # where n^l is within GHZCERT_MAX_GRID the floor is stated in decimal
    low = build_certificate(K3, 4, scalar_rep([1, 1, 1]), (4,), 3, 0)
    assert "M 3 below floor 4" in verify_certificate(low).check("counting").detail


def test_verify_names_a_huge_level_by_its_size():
    # n = 10^5000 has more digits than str() of an int writes, so naming it
    # in the GridTooLarge message raised ValueError out of the verifier
    k3_n4 = synthesize_certificate(K3, 4, seed=0)
    counting = verify_certificate(k3_n4._replace(n=10**5000)).check(
        "counting"
    )
    assert counting.status == "fail"
    assert counting.detail.startswith("cannot recount M: GridTooLarge")
    counting = verify_certificate(k3_n4._replace(n=10**4000)).check(
        "counting"
    )
    assert "(a 13288-bit n)^2 is over the limit" in counting.detail
    assert len(counting.detail) < 300


def test_verify_rejects_vectors_wider_than_d():
    # C6 at n = 11 with a zero coordinate appended to every c: orthogonality
    # and general position survive, but c no longer lives in Q^d
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    wide = tuple(v + (0,) for v in cert.rep.vectors)
    bad = cert._replace(rep=cert.rep._replace(vectors=wide))
    report = verify_certificate(bad)
    assert not report.ok
    rep_check = report.check("orthogonal_representation")
    assert rep_check.status == "fail"
    assert rep_check.detail == (
        "c vectors must have d = 4 coordinates; edges [0, 1, 2, 3, 4, 5] have 5"
    )


def test_verify_recounts_hash_only_certificates_above_the_deep_grid():
    # K4^3 at n = 32 (grid 32^4, n^lambda = 32768): M and the solution count
    # both raised by one verified ok while only small grids were recounted
    obj = synthesize_certificate(complete_uniform(4, 3), 32, seed=0).to_json_dict()
    set_m(obj, obj["M"] + 1)
    obj["solutions"]["count"] += 1
    counting = verify_certificate(Certificate.from_json_dict(obj)).check("counting")
    assert counting.status == "fail"
    assert counting.detail == "M 21857 != recounted 21856"


def test_verify_recounts_listed_certificates_above_the_deep_grid():
    # C6 at n = 11 (grid 1.77e6): one listed solution dropped and M set from
    # 31 to 30 verified ok the same way
    cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
    obj = cert.to_json_dict()
    obj["solutions"] = [list(i) for i in enumerate_solutions(cert.rep, 11, cert.g)]
    assert obj["M"] == len(obj["solutions"]) == 31
    del obj["solutions"][7]
    set_m(obj, 30)
    report = verify_certificate(Certificate.from_json_dict(obj))
    assert not report.ok
    counting = report.check("counting")
    assert counting.status == "fail"
    assert "M 30 != recounted 31" in counting.detail


def test_verify_skips_no_claim():
    # every check but the deep simulation is recomputed or fails, on honest
    # and tampered certificates of every size
    rng = random.Random(7)
    certs = [
        synthesize_certificate(h, n, seed=0) for _, h in corpus() for n in (2, 3, 4)
    ] + [
        synthesize_certificate(cycle_hypergraph(4), 32, seed=0),
        synthesize_certificate(complete_uniform(4, 3), 32, seed=0),
    ]
    verdicts = set()
    for cert in certs:
        obj = cert.to_json_dict()
        cases = [cert] + [
            Certificate.from_json_dict(tamper_certificate(obj, kind, rng))
            for kind in ("M", "c", "g", "assignment")
        ]
        for case in cases:
            report = verify_certificate(case)
            skipped = [c.name for c in report.checks if c.status == "skipped"]
            assert skipped == ["degeneration"], (cert.hypergraph, cert.n, skipped)
            verdicts.add(report.ok)
    assert verdicts == {True, False}


def test_verify_bounds_the_recount_by_the_grid_limit(monkeypatch):
    # K3 at n = 4 recounts over n^lambda = 16 free assignments
    cert = synthesize_certificate(K3, 4, seed=0)
    monkeypatch.setenv("GHZCERT_MAX_GRID", "16")
    assert verify_certificate(cert).ok
    monkeypatch.setenv("GHZCERT_MAX_GRID", "15")
    counting = verify_certificate(cert).check("counting")
    assert counting.status == "fail"
    assert counting.detail.startswith("cannot recount M: GridTooLarge")
    monkeypatch.setenv("GHZCERT_MAX_GRID", "lots")
    with pytest.raises(BadGridLimitError):
        verify_certificate(cert)


def test_verify_rejects_shares_of_absent_vertices_and_other_levels():
    # both verified ok: a share for a fourth vertex escaped the locality
    # check, and no check read the edge levels
    cert = synthesize_certificate(K3, 4, seed=0)
    qa = cert.assignment
    moved = qa._replace(
        k=4, quad=qa.quad + ({},), lin=qa.lin + ({},),
        const=(0,) + qa.const[1:] + (qa.const[0],),
    )
    report = verify_certificate(cert._replace(assignment=moved))
    assert report.check("completeness").status == "fail"
    assert report.check("completeness").detail == "4 vertex shares for 3 vertices"
    level3 = hypergraph(3, [e.vertices for e in K3.edges], [2, 2, 3])
    report = verify_certificate(cert._replace(hypergraph=level3))
    assert report.check("counting").status == "fail"
    assert report.check("counting").detail == "edges [2] are not of level 2"


def _fraction_solve(cols, rhs) -> list[Fraction]:
    """y with sum_t y_t cols[t] = rhs over Fraction, for independent cols."""
    d = len(cols)
    m = [[Fraction(c[row]) for c in cols] + [Fraction(rhs[row])] for row in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[-1] for row in m]


def test_pivot_solve_reads_the_fraction_solve_off_one_reduction():
    # The pivot solve reduces [C_P | C_free | g] once.  On an invertible
    # block the pivots are the first d columns, D = |last pivot| > 0, and
    # the later columns times that pivot's sign are D C_P^-1 c_e and
    # D C_P^-1 g.
    rng = random.Random(61)
    seen = set()
    for _ in range(2000):
        d, lam = rng.randint(1, 4), rng.randint(0, 3)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(lam + d)]
        g = tuple(rng.randint(-9, 9) for _ in range(d))
        block = vectors[lam:]
        m = [list(row) for row in zip(*block, *vectors[:lam], g)]
        pivots, last = _reduce(m)
        if ref_rank(block) < d:
            seen.add("singular")
            assert pivots[:d] != list(range(d))
            with pytest.raises(NotGeneralPositionError, match=f"the last {d} edge"):
                next(_pivot_blocks(vectors, 3, g))
            continue
        assert pivots == list(range(d)) and last
        den, sign = abs(last), (last > 0) - (last < 0)
        seen.add(sign)
        for j, rhs in enumerate([*vectors[:lam], g]):
            want = [den * y for y in _fraction_solve(block, rhs)]
            assert [sign * row[d + j] for row in m] == want, (vectors, g)
        for t, row in enumerate(m):
            assert [sign * x for x in row[:d]] == [den * (t == u) for u in range(d)]
    assert seen == {"singular", 1, -1}
    # a singular block whose one pivot sits in its last column, and one whose
    # reduction ends on a negative pivot, raise too
    for block in (((0, 0), (1, 0)), ((0, 0), (-1, 0)), ((-2, -4), (1, 2))):
        for lam in (0, 1):
            vectors = ((1, 1),) * lam + block
            with pytest.raises(NotGeneralPositionError, match="the last 2 edge"):
                next(_pivot_blocks(vectors, 3, (0, 0)))
    # a block whose reduction ends on a negative pivot solves as a positive one
    flip = ((1, 1), (-1, 0), (0, 1))
    assert _reduce([[-1, 0], [0, 1]]) == ([0, 1], -1)
    assert list(_pivot_solutions(flip, 3, (0, 1))) == [(0, 0, 1), (1, 1, 0)]


def test_verify_without_recount_says_so():
    # C4 at n = 3 with dependent pivot vectors: the grid is small, but the
    # pivot solve cannot recount M, so the claims that rest on it fail
    cert = synthesize_certificate(cycle_hypergraph(4), 3, seed=0)
    vectors = cert.rep.vectors[:2] + ((1, 1), (2, 2))
    bad = cert._replace(rep=cert.rep._replace(vectors=vectors))
    report = verify_certificate(bad, deep=True)
    assert not report.ok
    assert "skipped" not in {c.status for c in report.checks}
    counting = report.check("counting")
    assert counting.status == "fail"
    assert "cannot recount M: NotGeneralPosition" in counting.detail
    for name in ("exponent_sign", "injectivity", "degeneration"):
        assert report.check(name).status == "fail", name
    assert "NotGeneralPosition" in report.check("degeneration").detail


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
        return cert._replace(assignment=qa._replace(quad=tuple(quad)))

    far = [(j, e) for j in range(h.k) for e in range(h.l) if e not in h.incident(j + 1)]
    if far:
        j, e = far[0]
        lin = list(qa.lin)
        lin[j] = {**lin[j], e: 0}
        out.append(cert._replace(assignment=qa._replace(lin=tuple(lin))))
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
    # exponent_sign and injectivity are derived from completeness and
    # decodability; the grid sweeps they replace must agree wherever the
    # derivation says pass, and any sweep failure must fail the report
    rng = random.Random(404)
    seen = set()
    for name, h in corpus():
        for n in (2, 3, 4):
            cert = synthesize_certificate(h, n, seed=0)
            obj = cert.to_json_dict()
            zeroed = cert.rep._replace(vectors=((0,) * cert.d,) + cert.rep.vectors[1:])
            cases = [cert] + [
                Certificate.from_json_dict(tamper_certificate(obj, kind, rng))
                for kind in ("M", "c", "g", "assignment")
            ] + _local_edits(cert) + [cert._replace(rep=zeroed)]
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
                labels = ("skipped", "") if sols is None else ref_injectivity(case, sols)
                for check, premise, ref in (
                    ("exponent_sign", "completeness", sign),
                    ("injectivity", "decodability", labels),
                ):
                    status = report.check(check).status
                    assert status == report.check(premise).status, (name, n, check)
                    if status == "pass":
                        assert ref[0] == "pass", (name, n, check)
                    if ref[0] == "fail":
                        assert not report.ok, (name, n, check)
                seen.add((want[0], sign[0], labels[0]))
    # the references saw both verdicts of each check
    for k in range(3):
        assert {"pass", "fail"} <= {s[k] for s in seen}, k


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
        assert t.entries[key] == total_exponent(cert.assignment, i)


def _ref_degeneration(cert) -> tuple[str, str]:
    """The deep check replayed on conftest's dict tensors, with the solution
    set from the grid sweep."""
    h, n = cert.hypergraph, cert.n
    incident = [h.incident(j) for j in range(1, h.k + 1)]
    expected = {
        tuple(tuple(i[e] for e in inc) for inc in incident)
        for i in ref_solutions(cert.rep.vectors, n, cert.g)
    }
    try:
        t = ref_ghz_state(h, n)
        for j in range(1, h.k + 1):
            t = ref_apply_local_diagonal(t, j, cert.assignment.site_function(h, j))
        lead = ref_leading_term(t)
        r = ref_check_ghz_structure(lead)
    except GhzcertError as exc:
        return "fail", f"{type(exc).__name__}: {exc}"
    detail = []
    if r != cert.m_count:
        detail.append(f"leading term has {r} entries, M = {cert.m_count}")
    if set(lead.entries) != expected:
        detail.append("leading entries differ from the solution set")
    return ("fail", "; ".join(detail)) if detail else ("pass", "")


def _share_coefficients_moved(qa):
    """The assignment with one quad, lin or const coefficient of one vertex
    moved down or up by one, for every such coefficient."""
    for j in range(qa.k):
        for field in ("quad", "lin", "const"):
            rows = getattr(qa, field)
            for term in [None] if field == "const" else sorted(rows[j]):
                for step in (-1, 1):
                    moved = list(rows)
                    if term is None:
                        moved[j] += step
                    else:
                        moved[j] = {**rows[j], term: rows[j][term] + step}
                    yield qa._replace(**{field: tuple(moved)})


def test_deep_check_matches_the_dict_reference():
    rng = random.Random(1933)
    seen = set()
    for trial in range(12):
        h = random_connected_hypergraph(rng, kmax=4, emax=4)
        cert = synthesize_certificate(h, rng.choice((2, 3)), seed=trial)
        moved = [cert._replace(assignment=qa) for qa in _share_coefficients_moved(cert.assignment)]
        for c in [cert] + moved:
            deep = verify_certificate(c, deep=True).check("degeneration")
            assert (deep.status, deep.detail) == _ref_degeneration(c), (h, c.n)
            if deep.status == "pass":
                seen.add("pass")
            elif "leading entries differ" in deep.detail:
                seen.add("differ")
            else:
                seen.add(deep.detail.split(":")[0])
    assert {"pass", "NegativeExponentError", "GhzStructureError", "differ"} <= seen


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
    sols = enumerate_solutions(rep, 4, g)
    assert cert.m_count == len(sols) == 12
    assert cert.seed == 9
