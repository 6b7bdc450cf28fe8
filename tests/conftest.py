import argparse
import importlib
import json
import random
from collections import Counter, deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm, log2, prod
from pathlib import Path

from ghzcert.errors import (
    DisconnectedError,
    GhzcertError,
    GhzStructureError,
    NegativeExponentError,
    NonScalarCoefficientsError,
    NotGeneralPositionError,
    TooFewVerticesError,
    TooLargeError,
)
from ghzcert.gpor import gpor_candidates
from ghzcert.hypergraph import (
    Cut,
    Graph,
    Hypergraph,
    complete_uniform,
    cycle_hypergraph,
    edge_connectivity,
    hypergraph,
    is_connected,
    line_graph,
    path_hypergraph,
    single_full_edge,
)
from ghzcert.protocol import (
    _up_to_order_and_sign,
    build_certificate,
    c_prime,
    choose_g,
)
from ghzcert.ratlinalg import rank
from ghzcert.tensor import SparseTensor, _require_scalar, _trusted, _width

MAX_REMOVAL_ORACLE_EDGES = 12
MAX_VERTEX_CONN_ORACLE = 10

# K3 at n = 4, seed 0, as written while certificates of up to 10^4
# solutions still listed them: 12 rows under "solutions", no count or hash
LISTED_K3_N4 = Path(__file__).resolve().parent / "data" / "k3-n4-listed.cert.json"


def listed_k3_n4() -> dict:
    """The listed K3 n = 4 certificate, as JSON."""
    return json.loads(LISTED_K3_N4.read_bytes())


# K3 at n = 4, seed 0, as written while certificates carried the sha256 of
# their solutions' compact JSON beside the count: "solutions" is
# {"count": 12, "hash": ...}
HASHED_K3_N4 = Path(__file__).resolve().parent / "data" / "k3-n4-hashed.cert.json"


def hashed_k3_n4() -> dict:
    """The K3 n = 4 certificate with a solution hash, as JSON."""
    return json.loads(HASHED_K3_N4.read_bytes())


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


def ref_scan(h: Hypergraph, net):
    """``hypergraph._scan`` without its bounds: every sink from k down to 2
    runs its flow, stopped only at the least value so far (the first to
    completion), and the scan stops at the least edge capacity.  Calls the
    module's ``_max_flow`` by name, so a test can count its flows."""
    module = importlib.import_module("ghzcert.hypergraph")
    floor = min(net[2][::2])
    sources = [1]
    best = None
    for v in range(h.k, 1, -1):
        residual = list(net[2])
        for value in module._max_flow(net, sources, v, residual):
            if best is not None and value >= best[0]:
                break
        else:
            best = value, sources[:], v, residual
            if value == floor:
                break
        sources.append(v)
    return best


# -- brute-force connectivity oracles, independent of the max-flow code ------


class TooManyEdgesError(GhzcertError):
    code = "TooManyEdges"


def edge_connectivity_by_removal(h: Hypergraph) -> int:
    """Brute-force oracle: smallest number of edges whose removal disconnects.

    Tries every edge subset by increasing size; intended for tests only and
    guarded to |E| <= 12.
    """
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


def neighbors(g: Graph, u: int) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if g.adjacent(u, v))


def is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


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
        for v in neighbors(g, u):
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
    if is_complete(g):
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


def ref_primitive(v) -> tuple[int, ...]:
    """The primitive integer vector along the rational vector v (the lcm
    of the denominators multiplied in, the gcd divided out, the sign kept)."""
    v = [Fraction(a) for a in v]
    den = lcm(*(a.denominator for a in v))
    ints = [a.numerator * (den // a.denominator) for a in v]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


def ref_dependent_subsets(vectors, d: int) -> tuple[tuple[int, ...], ...]:
    """The dependent min(d, l)-subsets of the l vectors in Q^d, in
    lexicographic order: one Bareiss rank per subset, as the
    general-position check took it before its walk (none when d = 0)."""
    if d == 0:
        return ()
    size = min(d, len(vectors))
    return tuple(
        subset
        for subset in combinations(range(len(vectors)), size)
        if rank([vectors[i] for i in subset]) < size
    )


# -- flattening ranks: the bipartite log-rank the rate is the minimum of ----

FLATTEN_SIDE_LIMIT = 4096


def flattening_rank(t, side) -> int:
    """Exact rank of the tensor t viewed as a matrix: sites of ``side`` vs
    the rest.

    ``side`` holds 1-based vertex numbers, nonempty and proper.  Every
    exponent must be 0, so the matrix is 0/1.  Only labels realized by some
    entry become matrix rows and columns; dense materialization is refused
    when either realized side exceeds 4096 labels.
    """
    s = frozenset(side)
    if not s or not (s < frozenset(range(1, t.k + 1))):
        raise ValueError(f"side {sorted(s)} is not a proper nonempty vertex subset")
    _require_scalar(t)
    row_sites = [j for j in range(t.k) if j + 1 in s]
    col_sites = [j for j in range(t.k) if j + 1 not in s]
    cells: dict[tuple, list[tuple]] = {}
    cols: set[tuple] = set()
    for key in t.entries:
        r = tuple(key[j] for j in row_sites)
        c = tuple(key[j] for j in col_sites)
        cells.setdefault(r, []).append(c)
        cols.add(c)
    for size, name in ((len(cells), "side"), (len(cols), "complement")):
        if size > FLATTEN_SIDE_LIMIT:
            raise TooLargeError(
                f"{name} has {size} realized labels, over the dense "
                f"flattening limit {FLATTEN_SIDE_LIMIT}"
            )
    col_order = sorted(cols)
    col_pos = {c: i for i, c in enumerate(col_order)}
    rows = []
    for r in sorted(cells):
        vec = [0] * len(col_order)
        for c in cells[r]:
            vec[col_pos[c]] = 1
        rows.append(tuple(vec))
    return rank(rows)


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


def ref_kernel_points(vectors, n: int) -> int:
    """The vectors k in [-(n-1), n-1]^l with sum_e k_e c_e = 0, one by one."""
    d = len(vectors[0]) if vectors else 0
    return sum(
        all(sum(c[t] * x for c, x in zip(vectors, k)) == 0 for t in range(d))
        for k in product(range(1 - n, n), repeat=len(vectors))
    )


def ref_solutions(vectors, n: int, g: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [i for i, v in ref_grid_values(vectors, n) if v == g]


def counting_floor(rep, n: int) -> int:
    """Guaranteed lower bound on the mode count: grid size over box size."""
    box = (2 * c_prime(rep) * (n - 1) + 1) ** rep.d
    return -(-(n ** rep.graph.n) // box)


def ref_synthesize(h: Hypergraph, n: int, seed: int = 0):
    """synthesize_certificate with no early stop: the whole candidate list
    is drawn and checked first, then every candidate not equal to an earlier
    one up to order and sign is scored, and the first with the largest M
    kept."""
    lam = edge_connectivity(h)
    reps = list(gpor_candidates(line_graph(h), h.l - lam, seed=seed))
    m = 0
    scored = set()
    for cand in reps:
        shape = _up_to_order_and_sign(cand.vectors)
        if shape in scored:
            continue
        scored.add(shape)
        found = choose_g(cand, n, beat=m)
        if found is not None:
            (g, m), rep = found, cand
    return build_certificate(h, n, rep, g, m, seed)


def ref_pivot_inverse(pivots) -> tuple[list[list[int]], int]:
    """Integer A and the least D > 0 with A C_P = D I, C_P having the pivots
    as columns, as the pivot solve took them before it read A c_e and A g
    off one reduction of [C_P | C_free | g].

    Fraction-free Gauss-Jordan on [C_P | I] leaves [p I | p C_P^-1] at the
    last pivot p; the gcd of p and the right block is divided out.  A
    singular block raises NotGeneralPositionError.
    """
    d = len(pivots)
    rows = [
        [pivots[col][row] for col in range(d)] + [int(row == j) for j in range(d)]
        for row in range(d)
    ]
    prev = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col]), None)
        if piv is None:
            raise NotGeneralPositionError(
                f"the last {d} edge vectors are linearly dependent"
            )
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        p = top[col]
        for r in range(d):
            if r != col:
                a = rows[r][col]
                rows[r] = [(p * x - a * y) // prev for x, y in zip(rows[r], top)]
        prev = p
    step = gcd(prev, *(x for row in rows for x in row[d:]))
    if prev < 0:
        step = -step
    return [[x // step for x in row[d:]] for row in rows], prev // step


def ref_pivot_solutions(vectors, n: int, g: tuple[int, ...]):
    """The pivot solve one free assignment at a time: for each of the n^lam
    assignments in lexicographic order, i_P = (A g - sum_free i_e A c_e) / D,
    kept when the division is exact and each index lies in [0, n-1]."""
    d = len(g)
    lam = len(vectors) - d
    adj, den = ref_pivot_inverse(vectors[lam:])
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


# -- the exponent forms evaluated point by point ------------------------------


def local_exponent(qa, vertex: int, i: tuple[int, ...]) -> int:
    """Vertex ``vertex``'s share of assignment ``qa`` at grid point i."""
    j = vertex - 1
    total = qa.const[j]
    for (e, f), q in qa.quad[j].items():
        total += q * i[e] * i[f]
    for e, lam_e in qa.lin[j].items():
        total += lam_e * i[e]
    return total


def named_edges(qa, vertex: int) -> set[int]:
    """The edges that vertex ``vertex``'s share of assignment ``qa`` names."""
    j = vertex - 1
    return {e for key in qa.quad[j] for e in key} | set(qa.lin[j])


def total_exponent(qa, i: tuple[int, ...]) -> int:
    """The shares of assignment ``qa`` summed over its vertices at i."""
    return sum(local_exponent(qa, j, i) for j in range(1, qa.k + 1))


# -- grid-sweep references for the verifier's derived checks ----------------


def ref_completeness(cert) -> tuple[str, str]:
    """Locality, the aggregate coefficients, then the value at every grid
    point against ||c.i - g||^2 (the sweep the verifier no longer makes)."""
    h, vectors, g, qa = cert.hypergraph, cert.rep.vectors, cert.g, cert.assignment
    l = h.l
    detail = []
    nonlocal_vertices = [
        j for j in range(1, h.k + 1) if not named_edges(qa, j) <= set(h.incident(j))
    ]
    if nonlocal_vertices:
        detail.append(f"nonlocal terms at vertices {nonlocal_vertices}")
    quad, lin = Counter(), Counter()
    for j in range(qa.k):
        quad.update(qa.quad[j])
        lin.update(qa.lin[j])
    const = sum(qa.const)
    want_quad = {(e, e): _inner(vectors[e], vectors[e]) for e in range(l)}
    want_quad.update(
        {(e, f): 2 * _inner(vectors[e], vectors[f])
         for e in range(l) for f in range(e + 1, l)}
    )
    want_lin = {e: -2 * _inner(vectors[e], g) for e in range(l)}

    def nonzero(terms):
        return {key: v for key, v in terms.items() if v}

    if (
        nonzero(quad) != nonzero(want_quad)
        or nonzero(lin) != nonzero(want_lin)
        or const != _inner(g, g)
    ):
        detail.append("aggregate coefficients differ from the square expansion")
    if not detail:
        for i in product(range(cert.n), repeat=l):
            total = total_exponent(qa, i)
            direct = sum(
                (sum(vectors[e][t] * i[e] for e in range(l)) - g[t]) ** 2
                for t in range(len(g))
            )
            if total != direct:
                detail.append(f"grid mismatch at {i}: {total} != {direct}")
                break
    return ("fail", "; ".join(detail)) if detail else ("pass", "")


def ref_exponent_sign(cert, solutions) -> tuple[str, str]:
    """With the true ``solutions`` (None when there is no recount), the
    total is >= 0 everywhere and 0 exactly on them."""
    if solutions is None:
        return "skipped", ""
    detail = []
    sol_set = set(solutions)
    for i in product(range(cert.n), repeat=cert.hypergraph.l):
        total = total_exponent(cert.assignment, i)
        if total < 0:
            detail.append(f"negative total exponent at {i}")
            break
        if (total == 0) != (i in sol_set):
            detail.append(f"zero-set mismatch at {i}")
            break
    return ("fail", "; ".join(detail)) if detail else ("pass", "")


def ref_injectivity(cert, solutions) -> tuple[str, str]:
    """The per-vertex label pass: distinct ``solutions`` keep distinct labels
    (their indices on the vertex's incident edges) at every vertex."""
    h = cert.hypergraph
    bad = [
        j
        for j in range(1, h.k + 1)
        if len({tuple(i[e] for e in h.incident(j)) for i in solutions})
        != len(solutions)
    ]
    return ("fail", f"label collisions at vertices {bad}") if bad else ("pass", "")


def set_m(obj: dict, m: int) -> None:
    """Set certificate JSON ``obj``'s M and the log2 of it that the stated
    rate carries, which must agree with it."""
    obj["M"] = m
    obj["achieved_rate"]["log2_M"] = log2(m)


def tamper_certificate(obj: dict, kind: str, rng: random.Random) -> dict:
    """A copy of certificate JSON ``obj`` with one false field: M moved by one
    (with its stated log2 and the solution count, which must agree with it),
    one c or g entry raised by one, or one assignment term raised by one."""
    obj = json.loads(json.dumps(obj))
    if kind in ("c", "g") and obj["d"] == 0:
        kind = "assignment"
    if kind == "M":
        set_m(obj, obj["M"] + (rng.choice((-1, 1)) if obj["M"] > 1 else 1))
        obj["solutions"]["count"] = obj["M"]
    elif kind == "c":
        obj["c"][rng.randrange(len(obj["c"]))][rng.randrange(obj["d"])] += 1
    elif kind == "g":
        obj["g"][rng.randrange(obj["d"])] += 1
    elif kind == "assignment":
        terms = [term for row in obj["assignment"]["vertices"] for term in row["quad"]]
        rng.choice(terms)[2] += 1
    return obj


# Each case prepends one entry to a list of the K3 n = 4 certificate that
# states again a key the list already has: (path to the list, the entry, the
# parse error).  Every one verified ok, the last statement winning, while
# the lists went through dict() and frozenset().
REPEATED_KEYS = {
    "quad": (("assignment", "vertices", 0, "quad"), [0, 0, 999],
             "quad terms repeat (0, 0)"),
    "lin": (("assignment", "vertices", 0, "lin"), [0, 5], "lin terms repeat 0"),
    "edge-vertices": (("hypergraph", "edges", 0, "vertices"), 1,
                      "edge 0 vertices repeat 1"),
}


def repeat_key(obj: dict, case: str) -> dict:
    """A copy of the certificate dict with the ``case`` entry prepended."""
    obj = json.loads(json.dumps(obj))
    path, entry, _ = REPEATED_KEYS[case]
    target = obj
    for key in path:
        target = target[key]
    target.insert(0, entry)
    return obj


# Vertex 1's cross term [0, 2, 2] of the K3 n = 4 certificate written as
# [2, 0, 2]: (path to the list, the term, its reversal, the parse error).
# The parser kept the key as given, so completeness failed (exit 1) on a
# term that states the same monomial.
REVERSED_QUAD = (("assignment", "vertices", 0, "quad"), [0, 2, 2], [2, 0, 2],
                 "quad term (2, 0) has e > f")


def reverse_quad(obj: dict) -> dict:
    """A copy of the certificate dict with the REVERSED_QUAD term reversed."""
    obj = json.loads(json.dumps(obj))
    path, term, backwards, _ = REVERSED_QUAD
    target = obj
    for key in path:
        target = target[key]
    target[target.index(term)] = backwards
    return obj


# -- the dict tensor: reference for ghzcert.tensor ---------------------------
#
# One dict from key (one label tuple per site) to exponent, rebuilt by every
# operation; the package stores the same tensor as one int of exponent slots.

RefTensor = namedtuple("RefTensor", "k alphabets entries")


def sparse_tensor(k: int, alphabets, entries: dict) -> SparseTensor:
    """The SparseTensor with these entries, key -> exponent, in this order:
    one column of alphabet indices per site, and the exponents m packed as
    m - min into slots of ``_width`` bytes."""
    indices = [{label: c for c, label in enumerate(a)} for a in alphabets]
    codes = tuple(
        [index[key[j]] for key in entries] for j, index in enumerate(indices)
    )
    exps = list(entries.values())
    lo, hi = min(exps, default=0), max(exps, default=0)
    width = _width(lo, hi)
    slots = b"".join((m - lo).to_bytes(width, "little") for m in exps)
    packed = int.from_bytes(slots, "little")
    return _trusted(k, alphabets, None, codes, len(exps), packed, lo, hi)


def ref_ghz_state(h: Hypergraph, n: int) -> RefTensor:
    incident = [h.incident(j) for j in range(1, h.k + 1)]
    alphabets = tuple(
        tuple(sorted(product(range(n), repeat=len(inc)))) for inc in incident
    )
    entries = {
        tuple(tuple(i[e] for e in inc) for inc in incident): 0
        for i in product(range(n), repeat=h.l)
    }
    return RefTensor(h.k, alphabets, entries)


def ref_apply_local_diagonal(t: RefTensor, vertex: int, exp_fn) -> RefTensor:
    j = vertex - 1
    shift = {label: int(exp_fn(label)) for label in t.alphabets[j]}
    entries = {key: m + shift[key[j]] for key, m in t.entries.items()}
    return RefTensor(t.k, t.alphabets, entries)


def ref_leading_term(t: RefTensor) -> RefTensor:
    for key, m in t.entries.items():
        if m < 0:
            raise NegativeExponentError(key, m)
    kept = {key: 0 for key, m in t.entries.items() if m == 0}
    return RefTensor(t.k, t.alphabets, kept)


def ref_check_ghz_structure(t: RefTensor) -> int:
    for key, m in t.entries.items():
        if m:
            raise NonScalarCoefficientsError(
                f"entry {key} has ε-dependent coefficient 1*e^{m}"
            )
    for j in range(t.k):
        seen = set()
        for key in t.entries:
            if key[j] in seen:
                raise GhzStructureError(j + 1, key[j])
            seen.add(key[j])
    return len(t.entries)


# -- the argparse parser: reference for cli._parse_args ----------------------


def ref_parser() -> argparse.ArgumentParser:
    """The command line as argparse built it, subparser by subparser."""
    from ghzcert import cli

    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description=(
            "GHZ distillation rates and degeneration certificates for "
            "hypergraph states"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input JSON file")
        p.add_argument(
            "--json", action="store_true", help="machine-readable stdout"
        )

    p = sub.add_parser(
        "connectivity", help="edge-connectivity and minimum cuts"
    )
    common(p)
    p.set_defaults(func=cli._cmd_connectivity)

    p = sub.add_parser("rate", help="optimal GHZ yield per copy")
    common(p)
    p.set_defaults(func=cli._cmd_rate)

    p = sub.add_parser("epr", help="pairwise EPR distillation rate")
    common(p)
    p.add_argument("--a", type=int, required=True, help="first vertex")
    p.add_argument("--b", type=int, required=True, help="second vertex")
    p.set_defaults(func=cli._cmd_epr)

    p = sub.add_parser(
        "gpor", help="general-position orthogonal representation"
    )
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cli._cmd_gpor)

    p = sub.add_parser("certify", help="synthesize a protocol certificate")
    common(p)
    p.add_argument("--n", type=int, required=True, help="levels per edge state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=cli._cmd_certify)

    p = sub.add_parser("verify", help="replay a certificate's claims")
    common(p)
    p.add_argument(
        "--deep",
        action="store_true",
        help="run the full tensor degeneration (small grids only)",
    )
    p.set_defaults(func=cli._cmd_verify)

    return parser
