"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (with wall time) so the run log doubles as a scorecard.  Budgets
are asserted, not just reported.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import (
    assert_valid_path_family,
    corpus,
    edge_connectivity_by_removal,
    flattening_rank,
    random_connected_hypergraph,
    ref_min_cut_separating,
    ref_solutions,
    total_exponent,
)
from ghzcert.gpor import OrthRep, _plan, _sweep, find_gpor, verify_orthrep
from ghzcert.hypergraph import (
    complete_uniform,
    cycle_hypergraph,
    edge_connectivity,
    edge_disjoint_paths,
    graph,
    line_graph,
    path_hypergraph,
    single_full_edge,
)
from ghzcert.protocol import (
    choose_g,
    enumerate_solutions,
    epr_rate,
    synthesize_certificate,
    verify_certificate,
)
from ghzcert.tensor import (
    apply_local_diagonal,
    check_ghz_structure,
    ghz_state,
    leading_term,
)


@pytest.fixture
def scorecard(capsys):
    """Print straight to the terminal, past pytest's capture."""

    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    return emit


def _criterion(emit, num, desc, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        emit(f"criterion {num}: FAIL - {desc} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed <= budget
    status = "PASS" if within else "FAIL"
    emit(f"criterion {num}: {status} - {desc} ({elapsed:.2f}s)")
    if not within:
        raise AssertionError(
            f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
        )


def test_criterion_01_connectivity_table(scorecard):
    def body():
        assert edge_connectivity(cycle_hypergraph(3)) == 2
        assert edge_connectivity(cycle_hypergraph(4)) == 2
        assert edge_connectivity(cycle_hypergraph(5)) == 2
        for k in range(2, 7):
            assert edge_connectivity(path_hypergraph(k)) == 1
        assert edge_connectivity(complete_uniform(4, 2)) == 3
        assert edge_connectivity(complete_uniform(5, 2)) == 4
        assert edge_connectivity(complete_uniform(4, 3)) == 3
        assert edge_connectivity(single_full_edge(3)) == 1
        for k in range(3, 6):
            for l in range(2, k + 1):
                want = math.comb(k - 1, l - 1)
                assert edge_connectivity(complete_uniform(k, l)) == want

    _criterion(scorecard, 1, "edge-connectivity table", 1.0, body)


def test_criterion_02_oracle_equivalence(scorecard):
    def body():
        rng = random.Random(2026)
        for _ in range(50):
            h = random_connected_hypergraph(rng, kmax=5, emax=7)
            lam = edge_connectivity(h)
            assert lam == edge_connectivity_by_removal(h)
            pair_cuts = []
            pair_paths = []
            for a, b in combinations(range(1, h.k + 1), 2):
                cut = ref_min_cut_separating(h, a, b)
                paths = edge_disjoint_paths(h, a, b)
                assert len(paths) == cut  # Menger, per pair
                assert_valid_path_family(h, a, b, paths)
                pair_cuts.append(cut)
                pair_paths.append(len(paths))
            assert lam == min(pair_cuts) == min(pair_paths)

    _criterion(scorecard, 2, "cut oracles and disjoint-path counts agree", 30.0, body)


def test_criterion_03_flattening_ranks(scorecard):
    def body():
        rng = random.Random(7)
        for _ in range(10):
            h = random_connected_hypergraph(rng, kmax=4, emax=4)
            lam = edge_connectivity(h)
            for n in (2, 3):
                t = ghz_state(h, n)
                logranks = []
                for mask in range(2 ** (h.k - 1) - 1):
                    side = {1} | {
                        v + 2 for v in range(h.k - 1) if mask >> v & 1
                    }
                    crossing = h.crossing(side)
                    r = flattening_rank(t, side)
                    assert r == n ** len(crossing)
                    logranks.append(len(crossing))
                assert min(logranks) == lam

    _criterion(scorecard, 3, "flattening ranks are n^crossing, min gives lambda", 30.0, body)


def test_criterion_04_gpor_search(scorecard):
    def body():
        instances = [h for _, h in corpus()]
        rng = random.Random(99)
        while len(instances) < len(corpus()) + 20:
            instances.append(random_connected_hypergraph(rng, kmax=5, emax=6))
        for h in instances:
            d = h.l - edge_connectivity(h)
            rep = find_gpor(line_graph(h), d, seed=0)
            report = verify_orthrep(rep)
            assert report.ok, report
            assert rep.d == d and len(rep.vectors) == h.l
            for v in rep.vectors:
                if d > 0:
                    assert math.gcd(*(abs(x) for x in v)) == 1

    _criterion(scorecard, 4, "orthogonal representation found for corpus and random", 60.0, body)


def test_criterion_05_strassen_counts_and_rates(scorecard):
    def body():
        k3 = cycle_hypergraph(3)
        rep = OrthRep(
            graph(3, [(0, 1), (0, 2), (1, 2)]), 1, ((1,), (1,), (1,))
        )
        # independent oracle: histogram of i0+i1+i2 on [0,3]^3
        hist = {}
        for i in product(range(4), repeat=3):
            hist[sum(i)] = hist.get(sum(i), 0) + 1
        best = max(hist.values())
        assert best == 12
        g, m = choose_g(rep, 4)
        assert m == best == 12
        assert hist[g[0]] == 12
        assert len(enumerate_solutions(rep, 4, g)) == 12

        cert = synthesize_certificate(k3, 4, seed=0)
        assert cert.m_count == 12
        report = verify_certificate(cert, deep=True)
        assert report.ok, report.summary()
        assert report.check("degeneration").status == "pass"

        rates = []
        for n in (4, 8, 16, 32):
            c = synthesize_certificate(k3, n, seed=0)
            rates.append(c.achieved_rate)
        assert rates == sorted(rates)
        assert all(r <= 2.0 for r in rates)
        assert rates[-1] >= 1.85

    _criterion(scorecard, 5, "M=12 split of GHZ(4)^3 and rates approaching 2", 60.0, body)


def _acceptance_certs():
    cases = [
        (cycle_hypergraph(3), 2),
        (cycle_hypergraph(3), 4),
        (cycle_hypergraph(3), 8),
        (cycle_hypergraph(4), 2),
        (cycle_hypergraph(4), 4),
        (cycle_hypergraph(5), 2),
        (complete_uniform(4, 2), 2),
        (complete_uniform(4, 3), 2),
        (path_hypergraph(4), 4),
        (single_full_edge(3), 4),
    ]
    return [(h, n, synthesize_certificate(h, n, seed=0)) for h, n in cases]


def test_criterion_06_exponent_identity(scorecard):
    def body():
        for h, n, cert in _acceptance_certs():
            assert n ** h.l <= 10 ** 6
            sols = set(ref_solutions(cert.rep.vectors, n, cert.g))
            qa = cert.assignment
            vectors = cert.rep.vectors
            for i in product(range(n), repeat=h.l):
                diff = [
                    sum(vectors[e][t] * i[e] for e in range(h.l)) - cert.g[t]
                    for t in range(cert.d)
                ]
                norm = sum(x * x for x in diff)
                total = total_exponent(qa, i)
                assert total == norm
                if i in sols:
                    assert total == 0
                else:
                    assert total > 0

    _criterion(scorecard, 6, "summed local exponents equal the squared distance", 60.0, body)


def test_criterion_07_decodability_and_deep_count(scorecard):
    def body():
        for h, n, cert in _acceptance_certs():
            sols = ref_solutions(cert.rep.vectors, n, cert.g)
            for j in range(1, h.k + 1):
                incident = h.incident(j)
                seen = set()
                for s in sols:
                    label = tuple(s[e] for e in incident)
                    assert label not in seen
                    seen.add(label)
            t = ghz_state(h, n)
            for j in range(1, h.k + 1):
                t = apply_local_diagonal(t, j, cert.assignment.site_function(h, j))
            lead = leading_term(t)
            assert check_ghz_structure(lead) == cert.m_count
            report = verify_certificate(cert, deep=True)
            assert report.ok, report.summary()

    _criterion(scorecard, 7, "solutions decodable per vertex, leading term is GHZ_M", None, body)


def test_criterion_08_paths_hit_rate_one(scorecard):
    def body():
        for k in range(2, 7):
            h = path_hypergraph(k)
            for n in (2, 4, 16):
                cert = synthesize_certificate(h, n, seed=0)
                assert cert.m_count == n
                assert cert.achieved_rate == 1.0
                assert cert.lam == 1

    _criterion(scorecard, 8, "path hypergraphs reach rate exactly 1", None, body)


def test_criterion_09_epr_rates(scorecard):
    def body():
        for k in range(3, 7):
            h = path_hypergraph(k)
            res = epr_rate(h, 1, k)
            assert res.t == 1 and res.rate == Fraction(1)
            assert_valid_path_family(h, 1, k, [list(p) for p in res.paths])
        c4 = cycle_hypergraph(4)
        for a, b in ((1, 3), (2, 4), (1, 2)):
            res = epr_rate(c4, a, b)
            assert res.t == 2 and res.rate == Fraction(1, 2)
            assert_valid_path_family(c4, a, b, [list(p) for p in res.paths])
        k3 = cycle_hypergraph(3)
        for a, b in ((1, 2), (1, 3), (2, 3)):
            res = epr_rate(k3, a, b)
            assert res.t == 2
            assert_valid_path_family(k3, a, b, [list(p) for p in res.paths])

    _criterion(scorecard, 9, "EPR rates 1/1 on path ends, 1/2 on C_4 and K_3", None, body)


def test_criterion_10_orthogonalization_properties(scorecard):
    def body():
        rng = random.Random(314)
        for trial in range(100):
            n = rng.randint(2, 6)
            d = rng.randint(1, 3)
            pairs = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            g = graph(n, pairs)
            plan = _plan(g, tuple(range(n)))
            f = {v: tuple(rng.randint(-9, 9) for _ in range(d)) for v in range(n)}
            out = _sweep(plan, f)
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.adjacent(u, v):
                        assert sum(
                            out[u][t] * out[v][t] for t in range(d)
                        ) == 0
            assert _sweep(plan, out) == out
        # verified representations do not move under the sweep
        for _, h in corpus():
            d = h.l - edge_connectivity(h)
            rep = find_gpor(line_graph(h), d, seed=0)
            if rep.d == 0:
                continue
            vecs = dict(enumerate(rep.vectors))
            assert _sweep(_plan(rep.graph, tuple(range(rep.graph.n))), vecs) == vecs

    _criterion(scorecard, 10, "sweep orthogonalizes, is idempotent, fixes verified reps", 30.0, body)


def test_criterion_11_cli_round_trip(scorecard, tmp_path):
    def body():
        h_path = tmp_path / "k3.json"
        h_path.write_text(json.dumps(cycle_hypergraph(3).to_json_dict()))
        cmd = [
            sys.executable,
            "-m",
            "ghzcert.cli",
            "certify",
            str(h_path),
            "--n",
            "4",
            "--seed",
            "0",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout
        cert_path = tmp_path / "cert.json"
        cert_path.write_bytes(first.stdout)
        for extra in ([], ["--deep"]):
            done = subprocess.run(
                [sys.executable, "-m", "ghzcert.cli", "verify", str(cert_path)]
                + extra,
                capture_output=True,
            )
            assert done.returncode == 0, done.stdout + done.stderr

    _criterion(scorecard, 11, "CLI certify is byte-stable and verify accepts it", 10.0, body)
