import random
from functools import lru_cache
from itertools import product
from math import prod

from ghzcert.hypergraph import (
    Cut,
    Hypergraph,
    complete_uniform,
    cycle_hypergraph,
    hypergraph,
    is_connected,
    path_hypergraph,
    single_full_edge,
)


def corpus() -> list[tuple[str, Hypergraph]]:
    """The instances every end-to-end test cycles through."""
    return [
        ("K3", cycle_hypergraph(3)),
        ("C4", cycle_hypergraph(4)),
        ("C5", cycle_hypergraph(5)),
        ("K4^2", complete_uniform(4, 2)),
        ("K4^3", complete_uniform(4, 3)),
        ("path3", path_hypergraph(3)),
        ("path4", path_hypergraph(4)),
        ("path5", path_hypergraph(5)),
        ("full3", single_full_edge(3)),
    ]


def random_connected_hypergraph(
    rng: random.Random, kmax: int = 5, emax: int = 7, emin: int = 1
) -> Hypergraph:
    """Rejection-sample a connected hypergraph with edges of size >= 2."""
    while True:
        k = rng.randint(2, kmax)
        l = rng.randint(emin, emax)
        edges = [
            rng.sample(range(1, k + 1), rng.randint(2, k)) for _ in range(l)
        ]
        h = hypergraph(k, edges)
        if is_connected(h):
            return h


def assert_valid_path_family(h: Hypergraph, a: int, b: int, paths) -> None:
    """Each path connects a to b through shared vertices; no edge reused."""
    used: set[int] = set()
    for path in paths:
        assert path, "empty path"
        assert not (set(path) & used), "edge reused across paths"
        used.update(path)
        assert a in h.edges[path[0]].vertices
        assert b in h.edges[path[-1]].vertices
        for e, f in zip(path, path[1:]):
            assert h.edges[e].vertices & h.edges[f].vertices, (
                f"edges {e},{f} do not touch"
            )


# -- bipartition-enumeration reference, independent of the max-flow code ----


@lru_cache(maxsize=4)
def ref_cuts(h: Hypergraph) -> tuple[Cut, ...]:
    """Every side containing vertex 1 except the full set, in mask order
    (bit v - 2 set when vertex v is on the side), with its crossing edges."""
    cuts = []
    for mask in range(2 ** (h.k - 1) - 1):
        side = frozenset([1] + [v for v in range(2, h.k + 1) if mask >> (v - 2) & 1])
        crossing = h.crossing(side)
        cuts.append(Cut(side, crossing, prod(h.edges[i].level for i in crossing)))
    return tuple(cuts)


def ref_min_cut(h: Hypergraph, weighted: bool = False) -> Cut:
    """First side in mask order with the fewest crossing edges (weighted: the
    smallest product of crossing levels)."""
    return min(ref_cuts(h), key=lambda c: c.rank if weighted else len(c.crossing))


def ref_min_cut_separating(h: Hypergraph, a: int, b: int) -> int:
    return min(len(c.crossing) for c in ref_cuts(h) if (a in c.side) != (b in c.side))


# -- grid-sweep reference for solution counting, independent of the solver --


def ref_grid_values(vectors, n: int):
    """(i, sum_e i_e c_e) for every i in [0, n-1]^l, in lexicographic order."""
    d = len(vectors[0]) if vectors else 0
    for i in product(range(n), repeat=len(vectors)):
        yield i, tuple(sum(c[t] * x for c, x in zip(vectors, i)) for t in range(d))


def ref_histogram(vectors, n: int) -> dict[tuple[int, ...], int]:
    hist: dict[tuple[int, ...], int] = {}
    for _, v in ref_grid_values(vectors, n):
        hist[v] = hist.get(v, 0) + 1
    return hist


def ref_solutions(vectors, n: int, g: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [i for i, v in ref_grid_values(vectors, n) if v == g]
