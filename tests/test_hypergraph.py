import importlib
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    TooManyEdgesError,
    assert_valid_path_family,
    corpus,
    edge_connectivity_by_removal,
    graph_is_connected,
    is_complete,
    neighbors,
    random_connected_hypergraph,
    ref_min_cut,
    ref_min_cut_separating,
    ref_scan,
    vertex_connectivity,
)
from ghzcert.errors import (
    BadLevelError,
    DisconnectedError,
    EmptyEdgeError,
    SameVertexError,
    TooFewVerticesError,
    TooLargeError,
    VertexOutOfRangeError,
)
from ghzcert.hypergraph import (
    Cut,
    Edge,
    Graph,
    Hypergraph,
    complete_uniform,
    cycle_hypergraph,
    edge_connectivity,
    edge_disjoint_paths,
    graph,
    hypergraph,
    is_connected,
    line_graph,
    min_cut,
    min_cuts,
    path_hypergraph,
    single_full_edge,
)
from ghzcert.protocol import epr_rate, ghz_rate_bound


def test_validate_reports_edge_index():
    # a Hypergraph checks itself when built, however it is built
    pair = Edge(frozenset({1, 2}))
    with pytest.raises(EmptyEdgeError) as err:
        hypergraph(3, [{1, 2}, set()])
    assert err.value.edge_index == 1 and "edge 1" in str(err.value)
    with pytest.raises(VertexOutOfRangeError) as err:
        Hypergraph(3, (pair, Edge(frozenset({1, 4}))))
    assert err.value.edge_index == 1 and err.value.vertex == 4
    with pytest.raises(BadLevelError) as err:
        hypergraph(3, [{1, 2}])._replace(edges=(pair, pair, Edge(pair.vertices, 1)))
    assert err.value.edge_index == 2


def test_a_vertex_or_level_that_is_not_an_int_is_refused():
    # a float vertex read as disconnected, a float level failed inside the
    # flow, and a bool vertex wrote a certificate that did not parse
    with pytest.raises(VertexOutOfRangeError) as err:
        hypergraph(3, [{1, 1.5}, {1.5, 2}, {2, 3}])
    assert err.value.edge_index == 0 and err.value.vertex == 1.5
    with pytest.raises(VertexOutOfRangeError) as err:
        hypergraph(3, [{True, 2}, {2, 3}])
    assert err.value.edge_index == 0 and err.value.vertex is True
    for level in (2.5, 2.0):
        with pytest.raises(BadLevelError, match="edge 0 level") as err:
            hypergraph(3, [{1, 2}, {2, 3}], [level, 2])
        assert err.value.edge_index == 0


def test_a_k_that_is_not_an_int_is_refused():
    # a float k built, and its cuts then called it disconnected
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(TypeError, match=f"k must be an integer, not {k!r}"):
            hypergraph(k, [{1, 2}])
    with pytest.raises(TypeError, match="not True"):
        Hypergraph(True, ())


def test_levels_of_another_length_are_refused():
    # zip kept one edge of the triangle, which then was disconnected
    triangle = [{1, 2}, {2, 3}, {1, 3}]
    with pytest.raises(ValueError, match="1 levels for 3 edges"):
        hypergraph(3, triangle, [3])
    with pytest.raises(ValueError, match="4 levels for 3 edges"):
        hypergraph(3, triangle, [2, 2, 2, 2])
    assert hypergraph(3, triangle, [3, 3, 3]).levels() == (3, 3, 3)


def test_is_connected():
    assert is_connected(path_hypergraph(5))
    assert not is_connected(hypergraph(4, [{1, 2}, {3, 4}]))
    assert is_connected(hypergraph(1, []))
    assert not is_connected(hypergraph(2, []))
    # a hyperedge glues all its vertices at once
    assert is_connected(single_full_edge(6))


def test_connectivity_table():
    assert edge_connectivity(cycle_hypergraph(3)) == 2
    assert edge_connectivity(cycle_hypergraph(4)) == 2
    assert edge_connectivity(cycle_hypergraph(5)) == 2
    for k in range(2, 7):
        assert edge_connectivity(path_hypergraph(k)) == 1
    assert edge_connectivity(complete_uniform(4, 2)) == 3
    assert edge_connectivity(complete_uniform(5, 2)) == 4
    assert edge_connectivity(complete_uniform(4, 3)) == 3
    assert edge_connectivity(single_full_edge(4)) == 1


def test_complete_uniform_formula():
    for k in range(2, 6):
        for l in range(2, k + 1):
            assert edge_connectivity(complete_uniform(k, l)) == comb(k - 1, l - 1)


def test_min_cut_witness_is_consistent():
    for _, h in corpus():
        cut = min_cut(h)
        assert cut.crossing == h.crossing(cut.side)
        assert len(cut.crossing) == edge_connectivity(h)
        assert 1 in cut.side and len(cut.side) < h.k


def test_a_level_compares_as_the_fraction_it_stands_for():
    # the weighted cut orders flow values, products and quotients of levels,
    # by _Level's own comparisons: on a tuple base, a comparison it did not
    # define would fall back to the lexicographic order of (num, den)
    level = importlib.import_module("ghzcert.hypergraph")._Level
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)]
    grid = [(level(a, b), Fraction(a, b)) for a, b in pairs]
    assert [level(a) - level(b) for a, b in pairs] == [x for x, _ in grid]
    for x, fx in grid:
        assert (x.num, x.den) == (fx.numerator, fx.denominator)
        assert bool(x) == (fx != 1)  # 1 is the zero of (Q+, *)
        for y, fy in grid:
            assert (x < y, x <= y, x > y, x >= y, x == y) == (
                fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy
            )
            total = x + y
            assert Fraction(total.num, total.den) == fx * fy


def test_weighted_cut_differs_from_unweighted():
    # one heavy edge against two light parallel ones
    h = hypergraph(3, [{1, 2}, {1, 3}, {1, 3}], [5, 2, 2])
    plain = min_cut(h)
    weighted = min_cut(h, weighted=True)
    assert len(plain.crossing) == 1 and plain.rank == 5
    assert len(weighted.crossing) == 2 and weighted.rank == 4


def test_min_cut_rank_levels():
    assert min_cut(cycle_hypergraph(3), weighted=True).rank == 4
    assert min_cut(single_full_edge(4, level=3), weighted=True).rank == 3


def test_removal_oracle_matches_enumeration():
    rng = random.Random(99)
    for _ in range(15):
        h = random_connected_hypergraph(rng, kmax=5, emax=6)
        assert edge_connectivity(h) == edge_connectivity_by_removal(h)


def test_removal_oracle_guard():
    h = hypergraph(3, [{1, 2, 3}] * 13)
    with pytest.raises(TooManyEdgesError):
        edge_connectivity_by_removal(h)


def _mixed_cycle(k: int) -> Hypergraph:
    """Cycle on 1..k whose edge i has level (2, 3, 4)[i % 3]."""
    edges = [e.vertices for e in cycle_hypergraph(k).edges]
    return hypergraph(k, edges, [(2, 3, 4)[i % 3] for i in range(k)])


def test_cut_guards():
    # no cut enumerates bipartitions, so unequal levels have no vertex cap
    everyone = set(range(1, 26))
    h25 = hypergraph(25, [everyone, everyone], [2, 3])
    assert min_cut(h25, weighted=True) == Cut(frozenset({1}), (0, 1), 6)
    # a cycle whose edge i has level (2, 3, 4)[i % 3]: its cheapest cuts
    # sever two edges of level 2
    m40 = _mixed_cycle(40)
    assert min_cut(m40, weighted=True) == Cut(frozenset({1}), (0, 39), 4)
    assert min_cut(_mixed_cycle(200), weighted=True).rank == 4
    with pytest.raises(DisconnectedError):
        edge_connectivity(hypergraph(4, [{1, 2}, {3, 4}]))
    assert edge_connectivity(single_full_edge(25)) == 1
    c40 = cycle_hypergraph(40)
    cut = min_cut(c40)
    assert len(cut.crossing) == 2 and cut.side == frozenset({1})
    assert epr_rate(c40, 1, 21).t == 2


def _random_cut_instance(rng: random.Random) -> Hypergraph:
    """Connected, k <= 9, with singleton, full and parallel edges; levels all
    2, all 3, all 5 or mixed.  Mixed levels include composites, so different
    crossing sets can tie in rank (4 = 2 * 2) and the witness tie-break
    shows."""
    while True:
        k = rng.randint(2, 9)
        edges: list[set[int]] = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            if kind < 0.1:
                edges.append({rng.randint(1, k)})
            elif kind < 0.2:
                edges.append(set(range(1, k + 1)))
            elif kind < 0.3 and edges:
                edges.append(set(rng.choice(edges)))
            else:
                edges.append(set(rng.sample(range(1, k + 1), rng.randint(2, min(k, 4)))))
        level = rng.choice([2, 3, 5, None])
        levels = [level or rng.choice([2, 3, 4, 5, 6, 8]) for _ in edges]
        h = hypergraph(k, edges, levels)
        if is_connected(h):
            return h


def test_cuts_match_enumeration_reference():
    rng = random.Random(2024)
    for _ in range(500):
        h = _random_cut_instance(rng)
        cut, wcut = ref_min_cut(h), ref_min_cut(h, weighted=True)
        assert min_cut(h) == cut
        assert min_cut(h, weighted=True) == wcut
        assert min_cuts(h) == (cut, wcut)
        rate = ghz_rate_bound(h)
        assert (rate.lam, rate.cut_rank) == (len(cut.crossing), wcut.rank)
        for a in range(1, h.k + 1):
            for b in range(1, h.k + 1):
                if a != b:
                    paths = edge_disjoint_paths(h, a, b)
                    assert len(paths) == ref_min_cut_separating(h, a, b)


def test_the_bounds_keep_the_scan_and_cut_its_flows(monkeypatch):
    # the Menger skip and the vertex-cut stop dismiss only flows that the
    # unpruned scan dismisses or outdoes, so lambda, the sources and sink
    # of the first flow to reach it and that flow's residual (so the side)
    # are the same, from no more flows
    module = importlib.import_module("ghzcert.hypergraph")
    rng = random.Random(2028)
    saved = 0
    for _ in range(300):
        h = _random_cut_instance(rng)
        for by_level in (False, True):
            net = module._incidence_network(h, by_level)
            assert module._scan(h, net) == ref_scan(h, net)
            pruned = _flows(lambda g: module._scan(g, net), h, monkeypatch)
            unpruned = _flows(lambda g: ref_scan(g, net), h, monkeypatch)
            assert pruned <= unpruned
            saved += unpruned - pruned
    assert saved


def _core_and_ring() -> Hypergraph:
    """Vertices 1, 2, 6 and 7 joined by parallel edges, and a ring
    2-3-5-4-7 through them: every minimum cut (two edges) keeps 2, 6 and 7
    with 1, so the witness's first vertex outside is 5, below k, and that
    flow's residual puts 2 inside and 3 and 4 outside."""
    core = [{1, 2}] * 3 + [{1, 6}, {1, 6}, {1, 7}, {1, 7}, {6, 7}, {6, 7}]
    return hypergraph(7, core + [{2, 3}, {3, 5}, {4, 5}, {4, 7}])


def _level_bridge() -> Hypergraph:
    """Mixed levels with a bridge {3, 4} of the least level, 2: the minimum
    cut rank is that level, reached by the flow from 1 to 4."""
    edges = [{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}, {4, 5}]
    return hypergraph(5, edges, [3, 4, 3, 2, 6, 3])


def test_cut_edge_cases_match_enumeration_reference():
    ring = _core_and_ring()
    cut = min_cut(ring)
    assert cut == ref_min_cut(ring)
    assert cut.side == frozenset({1, 2, 6, 7})
    bridge = _level_bridge()
    wcut = ref_min_cut(bridge, weighted=True)
    assert wcut.rank == min(bridge.levels()) == 2
    assert min_cut(bridge, weighted=True) == wcut
    assert min_cuts(bridge) == (ref_min_cut(bridge), wcut)
    rate = ghz_rate_bound(bridge)
    assert (rate.lam, rate.cut_rank) == (1, 2)


EVERY_CUT = (
    edge_connectivity,
    min_cut,
    lambda h: min_cut(h, weighted=True),
    min_cuts,
    ghz_rate_bound,
    lambda h: edge_disjoint_paths(h, 1, h.k),
)


@pytest.mark.parametrize("levels", [None, [2, 3]])
def test_every_cut_refuses_a_disconnected_hypergraph(levels):
    h = hypergraph(4, [{1, 2}, {3, 4}], levels)
    for cut in EVERY_CUT:
        with pytest.raises(DisconnectedError):
            cut(h)


def test_every_cut_refuses_a_single_vertex():
    h = hypergraph(1, [{1}])
    for cut in EVERY_CUT:
        with pytest.raises(TooFewVerticesError, match="k=1; cuts need at least 2"):
            cut(h)


def weighted_min_cut(h: Hypergraph) -> Cut:
    return min_cut(h, weighted=True)


def _flow_values(cut, h: Hypergraph, monkeypatch) -> list[list]:
    """Per max-flow that ``cut(h)`` runs, the values it yielded."""
    # ghzcert.hypergraph is the function hypergraph(), not the module
    module = importlib.import_module("ghzcert.hypergraph")
    flow = module._max_flow
    flows = []

    def recorded(*args):
        flows.append([])
        for value in flow(*args):
            flows[-1].append(value)
            yield value

    with monkeypatch.context() as patch:
        patch.setattr(module, "_max_flow", recorded)
        cut(h)
    return flows


def _flows(cut, h: Hypergraph, monkeypatch) -> int:
    """The number of max-flows ``cut(h)`` runs."""
    return len(_flow_values(cut, h, monkeypatch))


def _light_vertex() -> Hypergraph:
    """Vertex 2 has two edges, so lambda <= 2, while three parallel edges
    join 1 to 3 and three join 3 to 4: the flow from 1 to 4 is 4."""
    return hypergraph(4, [{1, 3}] * 3 + [{3, 4}] * 3 + [{1, 2}, {2, 4}])


@pytest.mark.parametrize(
    "cut, h, flows",
    [
        # the scan stops at the least capacity, 1 here, after one flow,
        # whose residual gives the side
        (edge_connectivity, path_hypergraph(16), 1),
        (min_cut, path_hypergraph(16), 1),
        # lambda = 2; the first flow, to 16, gives the side; the flows to
        # 15 down to 3 each stop when they reach 2, and the sink 2 is
        # skipped: its two edges meet the sources, two paths already
        (min_cut, cycle_hypergraph(16), 14),
        # the lightest vertex cut is 2, so the flow to 7 stops at 3 of its
        # 5; the sink 6 is skipped, since its four edges to 1 and 7 exceed
        # 2; the flow to 5 reaches lambda = 2 and gives the side; the sinks
        # 4 and 2 are skipped (two and four edges to the sources), and the
        # flow to 3 stops when it reaches 2
        (min_cut, _core_and_ring(), 3),
        # on mixed levels min_cuts runs both scans; each stops after its
        # first flow, to 5, which crosses the bridge, the least capacity
        (min_cuts, _level_bridge(), 2),
        # on levels the first flow, to 5, crosses the bridge, the least level
        (weighted_min_cut, _level_bridge(), 1),
        # as min_cut: the sink 2 is skipped
        (edge_connectivity, cycle_hypergraph(16), 14),
        # the flow to 4 stops at 3 > 2, the lightest vertex cut, and the
        # sink 3 is skipped, its six edges to the sources being more than
        # 2; the flow to 2 gives lambda = 2
        (edge_connectivity, _light_vertex(), 2),
        # on levels 2, 3, 4, 2, 3, 4 the flow to 6 stops at 8 > 6, the
        # lightest vertex cut; the flows to 5 and 4 give 6, then 4; the
        # sinks 3 and 2 are skipped, their edges to the sources being of
        # level 4 and 2 * 3
        (weighted_min_cut, _mixed_cycle(6), 3),
    ],
)
def test_cuts_run_the_flows_they_need(cut, h, flows, monkeypatch):
    assert _flows(cut, h, monkeypatch) == flows


def test_the_lightest_vertex_cut_stops_the_first_flow(monkeypatch):
    # the flow to 4 would reach 4; the first value above 2 dismisses it
    h = _light_vertex()
    assert len(edge_disjoint_paths(h, 1, 4)) == 4
    assert _flow_values(edge_connectivity, h, monkeypatch) == [[0, 1, 2, 3], [0, 1, 2]]


def test_the_witness_side_costs_no_flow(monkeypatch):
    # min_cut reads its side off the scan that gives lambda, so it runs the
    # flows of the lambda-only call on the same capacities; on equal levels
    # the level scan runs the unit scan's flows and min_cuts scans once, on
    # mixed levels min_cuts runs both scans and nothing more
    rng = random.Random(2026)
    for _ in range(60):
        h = random_connected_hypergraph(rng, kmax=16, emax=20)
        level = rng.choice((2, 3, 5, None))
        h = hypergraph(
            h.k,
            [e.vertices for e in h.edges],
            [level or rng.choice((2, 3, 4, 6)) for _ in h.edges],
        )
        unit = _flows(min_cut, h, monkeypatch)
        assert unit == _flows(edge_connectivity, h, monkeypatch)
        weighted = _flows(weighted_min_cut, h, monkeypatch)
        both = _flows(min_cuts, h, monkeypatch)
        if len(set(h.levels())) == 1:
            assert weighted == unit == both
        else:
            assert both == unit + weighted


def test_min_cut_separating():
    # by Menger, the number of edge-disjoint a-b paths
    c6 = cycle_hypergraph(6)
    assert len(edge_disjoint_paths(c6, 1, 4)) == 2
    assert len(edge_disjoint_paths(path_hypergraph(5), 1, 5)) == 1
    assert len(edge_disjoint_paths(cycle_hypergraph(3), 2, 3)) == 2
    with pytest.raises(SameVertexError):
        edge_disjoint_paths(c6, 2, 2)


def test_edge_disjoint_paths_path_and_cycle():
    p5 = path_hypergraph(5)
    assert edge_disjoint_paths(p5, 1, 5) == [[0, 1, 2, 3]]
    c6 = cycle_hypergraph(6)
    paths = edge_disjoint_paths(c6, 1, 4)
    assert len(paths) == 2
    assert_valid_path_family(c6, 1, 4, paths)


def test_edge_disjoint_paths_rejects_vertices_out_of_range():
    c4 = cycle_hypergraph(4)
    with pytest.raises(VertexOutOfRangeError):
        edge_disjoint_paths(c4, 1, 99)
    with pytest.raises(VertexOutOfRangeError):
        edge_disjoint_paths(c4, 0, 2)


@pytest.mark.parametrize("vertex", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_a_vertex_pair_that_is_not_ints_is_refused(vertex):
    # a float failed inside the flow, and True was taken as vertex 1
    c4 = cycle_hypergraph(4)
    for pair in ((vertex, 3), (3, vertex)):
        for paths in (edge_disjoint_paths, epr_rate):
            with pytest.raises(VertexOutOfRangeError) as err:
                paths(c4, *pair)
            assert err.value.vertex is vertex


def test_edge_disjoint_paths_through_hyperedges():
    h = hypergraph(5, [{1, 2, 3}, {3, 4}, {4, 5}, {1, 5}])
    paths = edge_disjoint_paths(h, 1, 4)
    assert len(paths) == ref_min_cut_separating(h, 1, 4) == 2
    assert_valid_path_family(h, 1, 4, paths)
    # vertex 2 only sits inside the big edge, so one path is the max
    assert len(edge_disjoint_paths(h, 2, 4)) == 1


FLOW_CYCLES = {
    # walking the flow from a = 1, the first path leaves vertex 5 through
    # edge 3 = {5, 7} and comes straight back to 5 (one input in 20,000 of
    # a seeded search)
    "one-edge": (
        7,
        [
            {1, 7}, {1, 4, 5}, {4, 6}, {5, 7}, {1, 3, 7}, {6, 7},
            {1, 2}, {4, 6}, {2, 5}, {3, 4, 6}, {3, 4, 6}, {4, 5, 6},
        ],
        1, 4,
        [[0, 5, 2], [1], [4, 9], [6, 8, 11]],
    ),
    # from a = 5 the first path walks 5, 6, 3, 2, 4 and back to 3 through
    # edges 6, 3 and 8, which are cut out (a graph shrunk from an input a
    # seeded search found after some 10^6 flows)
    "three-edge": (
        9,
        [
            {1, 3}, {3, 6}, {5, 6}, {2, 4}, {2, 5}, {4, 8}, {2, 3}, {1, 8},
            {3, 4}, {3, 7}, {4, 7}, {7, 9}, {3, 7}, {2, 9}, {5, 8}, {5, 8},
        ],
        5, 7,
        [[2, 1, 9], [4, 13, 11], [14, 5, 10], [15, 7, 0, 12]],
    ),
}


@pytest.mark.parametrize("case", list(FLOW_CYCLES))
def test_edge_disjoint_paths_splices_out_a_flow_cycle(case):
    k, edges, a, b, want = FLOW_CYCLES[case]
    h = hypergraph(k, edges)
    paths = edge_disjoint_paths(h, a, b)
    assert paths == want
    assert len(paths) == ref_min_cut_separating(h, a, b)
    assert_valid_path_family(h, a, b, paths)


def test_menger_on_random_instances():
    rng = random.Random(7)
    for _ in range(20):
        h = random_connected_hypergraph(rng, kmax=5, emax=6)
        for a in range(1, h.k + 1):
            for b in range(a + 1, h.k + 1):
                paths = edge_disjoint_paths(h, a, b)
                assert len(paths) == ref_min_cut_separating(h, a, b)
                assert_valid_path_family(h, a, b, paths)


def test_line_graph_shapes():
    lp = line_graph(path_hypergraph(4))
    assert lp.n == 3 and lp.edges == frozenset({(0, 1), (1, 2)})
    lt = line_graph(cycle_hypergraph(3))
    assert is_complete(lt) and lt.n == 3
    assert line_graph(single_full_edge(5)).n == 1
    # parallel edges share vertices, hence are adjacent
    lp2 = line_graph(hypergraph(2, [{1, 2}, {1, 2}]))
    assert lp2.edges == frozenset({(0, 1)})


def test_graph_helpers():
    g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.adjacent(0, 1) and not g.adjacent(0, 2)
    assert neighbors(g, 0) == (1, 3)
    assert graph_is_connected(g)
    assert not graph_is_connected(g, frozenset({0, 2}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))


def test_vertex_connectivity():
    assert vertex_connectivity(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])) == 3
    assert vertex_connectivity(graph(4, [(0, 1), (1, 2), (2, 3)])) == 1
    assert vertex_connectivity(graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 2
    with pytest.raises(TooLargeError):
        vertex_connectivity(Graph(11))
    with pytest.raises(DisconnectedError):
        vertex_connectivity(graph(3, [(0, 1)]))


def test_line_graph_connectivity_dominates_edge_connectivity():
    # removing fewer than lambda(H) edges cannot disconnect, and any vertex
    # cut of L(H) is an edge subset of H whose removal disconnects it
    for _, h in corpus():
        if h.l < 2:
            continue
        assert vertex_connectivity(line_graph(h)) >= edge_connectivity(h)


def test_json_round_trip():
    h = hypergraph(4, [{1, 2, 3}, {3, 4}], [2, 5])
    obj = h.to_json_dict()
    assert obj == {
        "k": 4,
        "edges": [
            {"vertices": [1, 2, 3], "level": 2},
            {"vertices": [3, 4], "level": 5},
        ],
    }
    assert Hypergraph.from_json_dict(obj) == h
    # level defaults to 2 when absent
    bare = Hypergraph.from_json_dict(
        {"k": 2, "edges": [{"vertices": [1, 2]}]}
    )
    assert bare.edges[0].level == 2


def test_builders():
    p = path_hypergraph(4)
    assert p.k == 4 and [sorted(e.vertices) for e in p.edges] == [
        [1, 2],
        [2, 3],
        [3, 4],
    ]
    c = cycle_hypergraph(4)
    assert sorted(c.edges[-1].vertices) == [1, 4]
    assert complete_uniform(4, 2).l == 6
    assert single_full_edge(3, level=7).edges[0].level == 7


def test_incident_and_crossing():
    h = hypergraph(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
    assert h.incident(2) == (0, 1)
    assert h.crossing(frozenset({1, 2})) == (1, 3)
    # singleton edges never cross
    h2 = hypergraph(2, [{1, 2}, {1}])
    assert h2.crossing(frozenset({1})) == (0,)
