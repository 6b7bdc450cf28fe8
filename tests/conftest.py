import json
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

from ghzcert.errors import (
    DisconnectedError,
    TooFewVerticesError,
    TooLargeError,
    TooManyEdgesError,
)
from ghzcert.hypergraph import (
    Cut,
    Graph,
    Hypergraph,
    complete_uniform,
    cycle_hypergraph,
    hypergraph,
    is_connected,
    path_hypergraph,
    single_full_edge,
    validate,
)
from ghzcert.protocol import _pivot_inverse

MAX_REMOVAL_ORACLE_EDGES = 12
MAX_VERTEX_CONN_ORACLE = 10


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


# -- brute-force connectivity oracles, independent of the max-flow code ------


def edge_connectivity_by_removal(h: Hypergraph) -> int:
    """Brute-force oracle: smallest number of edges whose removal disconnects.

    Tries every edge subset by increasing size; intended for tests only and
    guarded to |E| <= 12.
    """
    validate(h)
    if h.k < 2:
        raise TooFewVerticesError(f"k={h.k}; connectivity needs at least 2 vertices")
    if len(h.edges) > MAX_REMOVAL_ORACLE_EDGES:
        raise TooManyEdgesError(
            f"|E|={len(h.edges)} exceeds the removal-oracle bound "
            f"{MAX_REMOVAL_ORACLE_EDGES}"
        )
    if not is_connected(h):
        raise DisconnectedError("hypergraph is disconnected")
    m = len(h.edges)
    for size in range(1, m + 1):
        for removed in combinations(range(m), size):
            kept = [e for i, e in enumerate(h.edges) if i not in removed]
            if not is_connected(Hypergraph(h.k, tuple(kept))):
                return size
    # removing everything leaves k >= 2 isolated vertices, so we never get here
    raise AssertionError("unreachable")


def graph_is_connected(g: Graph, alive: frozenset[int] | None = None) -> bool:
    """Breadth-first search over the ``alive`` vertices (default: all)."""
    verts = sorted(alive) if alive is not None else list(range(g.n))
    if len(verts) <= 1:
        return True
    vset = set(verts)
    seen = {verts[0]}
    queue = deque([verts[0]])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v in vset and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(verts)


def vertex_connectivity(g: Graph) -> int:
    """Exhaustive vertex-connectivity oracle (complete graph: n - 1)."""
    if g.n > MAX_VERTEX_CONN_ORACLE:
        raise TooLargeError(
            f"n={g.n} exceeds the vertex-connectivity oracle bound "
            f"{MAX_VERTEX_CONN_ORACLE}"
        )
    if not graph_is_connected(g):
        raise DisconnectedError("graph is disconnected")
    if g.is_complete():
        return g.n - 1
    for size in range(0, g.n - 1):
        for removed in combinations(range(g.n), size):
            alive = frozenset(range(g.n)) - frozenset(removed)
            if not graph_is_connected(g, alive):
                return size
    raise AssertionError("non-complete graph must have a vertex cut")



# -- Fraction references for the integer rank and sweep ----------------------


def ref_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    assert all(len(row) == ncols for row in m)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                factor = m[i][col] / m[r][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _ref_inner(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def ref_project_onto_span(basis, x) -> tuple[Fraction, ...]:
    """Projection by Gram-Schmidt over Fraction in input order, skipping
    intermediate vectors that come out exactly zero."""
    x = tuple(Fraction(a) for a in x)
    ortho = []
    for b in basis:
        b = tuple(Fraction(a) for a in b)
        assert len(b) == len(x)
        w = b
        for gm in ortho:
            c = _ref_inner(gm, b) / _ref_inner(gm, gm)
            w = tuple(a - c * q for a, q in zip(w, gm))
        if any(w):
            ortho.append(w)
    p = tuple(Fraction(0) for _ in x)
    for gm in ortho:
        c = _ref_inner(gm, x) / _ref_inner(gm, gm)
        p = tuple(a + c * q for a, q in zip(p, gm))
    return p


def ref_orthogonalize_map(g: Graph, f, ordering=None) -> dict:
    """One re-orthogonalization sweep over Fraction: each output is f(v)
    minus its projection onto the earlier non-adjacent nonzero outputs."""
    if ordering is None:
        ordering = tuple(range(g.n))
    out = {}
    for idx, v in enumerate(ordering):
        span = [
            out[u] for u in ordering[:idx] if not g.adjacent(u, v) and any(out[u])
        ]
        p = ref_project_onto_span(span, f[v])
        out[v] = tuple(Fraction(a) - b for a, b in zip(f[v], p))
    return out


def ref_settle(g: Graph, f, sweeps: int = 8):
    """Sweep until the map stops changing; None if it has not after
    ``sweeps`` sweeps."""
    cur = {v: tuple(Fraction(a) for a in w) for v, w in f.items()}
    for _ in range(sweeps):
        nxt = ref_orthogonalize_map(g, cur)
        if nxt == cur:
            return cur
        cur = nxt
    return None


# -- grid-sweep reference for solution counting, independent of the solver --


def _inner(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


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


def ref_pivot_solutions(vectors, n: int, g: tuple[int, ...]):
    """The pivot solve one free assignment at a time: for each of the n^lam
    assignments in lexicographic order, i_P = (A g - sum_free i_e A c_e) / D,
    kept when the division is exact and each index lies in [0, n-1]."""
    d = len(g)
    lam = len(vectors) - d
    adj, den = _pivot_inverse(vectors[lam:])
    target = [_inner(row, g) for row in adj]
    steps = [[_inner(row, vectors[e]) for row in adj] for e in range(lam)]
    top = den * (n - 1)
    for free in product(range(n), repeat=lam):
        pivot = []
        for t in range(d):
            r = target[t]
            for i, step in zip(free, steps):
                r -= i * step[t]
            q, rem = divmod(r, den)
            if rem or not 0 <= r <= top:
                break
            pivot.append(q)
        else:
            yield free + tuple(pivot)


# -- the pure-Python indenting encoder, reference for certificate bytes ------


def ref_to_json_bytes(cert) -> bytes:
    return (json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()


# -- grid-sweep reference for the verifier's completeness and exponent_sign --


def ref_completeness(cert) -> tuple[str, str]:
    """Locality, the aggregate coefficients, then the value at every grid
    point against ||c.i - g||^2 (the sweep the verifier no longer makes)."""
    h, vectors, g, qa = cert.hypergraph, cert.rep.vectors, cert.g, cert.assignment
    l = h.l
    detail = []
    nonlocal_vertices = [
        j for j in range(1, h.k + 1) if not qa.mentioned_edges(j) <= set(h.incident(j))
    ]
    if nonlocal_vertices:
        detail.append(f"nonlocal terms at vertices {nonlocal_vertices}")
    quad, lin, const = qa.aggregate()
    want_quad = {(e, e): _inner(vectors[e], vectors[e]) for e in range(l)}
    want_quad.update(
        {(e, f): 2 * _inner(vectors[e], vectors[f])
         for e in range(l) for f in range(e + 1, l)}
    )
    want_lin = {e: -2 * _inner(vectors[e], g) for e in range(l)}
    if (
        quad != {key: v for key, v in want_quad.items() if v}
        or lin != {e: v for e, v in want_lin.items() if v}
        or const != _inner(g, g)
    ):
        detail.append("aggregate coefficients differ from the square expansion")
    if not detail:
        for i in product(range(cert.n), repeat=l):
            total = qa.total_exponent(i)
            direct = sum(
                (sum(vectors[e][t] * i[e] for e in range(l)) - g[t]) ** 2
                for t in range(len(g))
            )
            if total != direct:
                detail.append(f"grid mismatch at {i}: {total} != {direct}")
                break
    return ("fail", "; ".join(detail)) if detail else ("pass", "")


def ref_exponent_sign(cert, solutions) -> tuple[str, str]:
    """Listed solutions solve c.i = g; with the true ``solutions`` (None when
    there is no recount), the total is >= 0 everywhere and 0 exactly on them."""
    vectors, g = cert.rep.vectors, cert.g
    detail = []
    for i in cert.solutions or ():
        v = tuple(sum(c[t] * x for c, x in zip(vectors, i)) for t in range(len(g)))
        if v != g:
            detail.append(f"listed solution {i} has c.i = {v} != g")
            break
    if solutions is None:
        if detail:
            return "fail", "; ".join(detail)
        return ("skipped", "") if cert.solutions is None else ("pass", "")
    sol_set = set(solutions)
    for i in product(range(cert.n), repeat=cert.hypergraph.l):
        total = cert.assignment.total_exponent(i)
        if total < 0:
            detail.append(f"negative total exponent at {i}")
            break
        if (total == 0) != (i in sol_set):
            detail.append(f"zero-set mismatch at {i}")
            break
    return ("fail", "; ".join(detail)) if detail else ("pass", "")


def tamper_certificate(obj: dict, kind: str, rng: random.Random) -> dict:
    """A copy of certificate JSON ``obj`` with one false field: M moved by one,
    one c or g entry raised by one, or one assignment term raised by one."""
    obj = json.loads(json.dumps(obj))
    if kind in ("c", "g") and obj["d"] == 0:
        kind = "assignment"
    if kind == "M":
        obj["M"] += rng.choice((-1, 1)) if obj["M"] > 1 else 1
    elif kind == "c":
        obj["c"][rng.randrange(len(obj["c"]))][rng.randrange(obj["d"])] += 1
    elif kind == "g":
        obj["g"][rng.randrange(obj["d"])] += 1
    elif kind == "assignment":
        terms = [term for row in obj["assignment"]["vertices"] for term in row["quad"]]
        rng.choice(terms)[2] += 1
    return obj
