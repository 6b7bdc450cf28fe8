"""Hypergraph model, cuts and connectivity.

Vertices are 1..k; edges are nonempty vertex subsets with an integer level
r >= 2 (the number of terms of the shared state living on that edge).  Edge
identity is positional: the same vertex set may occur several times and each
occurrence is a distinct edge, addressed by its 0-based index.

Edge-connectivity, minimum cuts, a-b cuts and edge-disjoint paths all come
from one unit-capacity max-flow on the vertex-edge incidence network (each
edge is a node of capacity one; Menger's theorem for hypergraphs, Lawler
1973).  lambda is the least of the k - 1 flows from vertex 1 to each other
vertex; the witness side is then fixed one vertex at a time with k - 1 more
flows.  Only the weighted cut with unequal levels, whose product of levels
is not an additive capacity, enumerates bipartitions (k <= 24).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import prod
from typing import Iterable, Sequence

from .errors import (
    BadLevelError,
    DisconnectedError,
    EmptyEdgeError,
    SameVertexError,
    TooFewVerticesError,
    TooLargeError,
    VertexOutOfRangeError,
)

MAX_CUT_ENUM_VERTICES = 24

# (head, adj) of the incidence network; see _incidence_network
_Network = tuple[list[int], list[list[int]]]

_INT = frozenset((int,))


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is not."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def _json_ints(values, field: str) -> tuple[int, ...]:
    row = tuple(values)
    if not _INT.issuperset(map(type, row)):
        raise TypeError(f"{field} must hold integers only")
    return row


def _json_int_rows(rows, field: str) -> tuple[tuple[int, ...], ...]:
    out = tuple(map(tuple, rows))
    if not _INT.issuperset(map(type, chain.from_iterable(out))):
        raise TypeError(f"{field} must hold integers only")
    return out


@dataclass(frozen=True)
class Edge:
    vertices: frozenset[int]
    level: int = 2


@dataclass(frozen=True)
class Hypergraph:
    k: int
    edges: tuple[Edge, ...]

    @property
    def l(self) -> int:
        return len(self.edges)

    def incident(self, vertex: int) -> tuple[int, ...]:
        """Indices of the edges containing ``vertex``, ascending."""
        return tuple(i for i, e in enumerate(self.edges) if vertex in e.vertices)

    def crossing(self, side: frozenset[int]) -> tuple[int, ...]:
        """Indices of edges meeting both ``side`` and its complement."""
        return tuple(
            i
            for i, e in enumerate(self.edges)
            if (e.vertices & side) and (e.vertices - side)
        )

    def levels(self) -> tuple[int, ...]:
        return tuple(e.level for e in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "edges": [
                {"vertices": sorted(e.vertices), "level": e.level}
                for e in self.edges
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hypergraph":
        k = _json_int(obj["k"], "k")
        edges = tuple(
            Edge(
                frozenset(_json_ints(e["vertices"], "edge vertices")),
                _json_int(e.get("level", 2), "edge level"),
            )
            for e in obj["edges"]
        )
        return cls(k, edges)


def hypergraph(
    k: int,
    edge_sets: Iterable[Iterable[int]],
    levels: Sequence[int] | None = None,
) -> Hypergraph:
    """Build a Hypergraph from plain vertex collections (levels default 2)."""
    sets = [frozenset(s) for s in edge_sets]
    if levels is None:
        levels = [2] * len(sets)
    return Hypergraph(k, tuple(Edge(s, lv) for s, lv in zip(sets, levels)))


@dataclass(frozen=True)
class Cut:
    """One side of a bipartition plus the edges it severs.

    ``rank`` is the exact product of the crossing edges' levels; its log2 is
    the bipartite log-rank of the associated state across this cut.
    """

    side: frozenset[int]
    crossing: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 (used for line graphs)."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad edge ({a}, {b}) for n={self.n}")

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edges

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.adjacent(u, v))

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


def graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    return Graph(n, frozenset(tuple(sorted(p)) for p in pairs))


def validate(h: Hypergraph) -> None:
    """Raise unless all Hypergraph invariants hold."""
    for i, e in enumerate(h.edges):
        if not e.vertices:
            raise EmptyEdgeError(i)
        for v in e.vertices:
            if not (1 <= v <= h.k):
                raise VertexOutOfRangeError(i, v, h.k)
        if e.level < 2:
            raise BadLevelError(f"edge {i} has level {e.level} < 2", i)


def is_connected(h: Hypergraph) -> bool:
    """True iff walks alternating vertices and incident edges reach everywhere."""
    if h.k <= 1:
        return True
    seen = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for i in h.incident(v):
            for w in h.edges[i].vertices:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(seen) == h.k


def _iter_sides(k: int):
    # All bipartition sides containing vertex 1, excluding the full set:
    # 2^(k-1) - 1 of them, in mask order.
    for mask in range(2 ** (k - 1) - 1):
        side = {1}
        for bit in range(k - 1):
            if mask >> bit & 1:
                side.add(bit + 2)
        yield frozenset(side)


def _require_cut_preconditions(h: Hypergraph) -> None:
    validate(h)
    if h.k < 2:
        raise TooFewVerticesError(f"k={h.k}; cuts need at least 2 vertices")
    if not is_connected(h):
        raise DisconnectedError("hypergraph is disconnected")


def _require_vertex_pair(h: Hypergraph, a: int, b: int) -> None:
    if a == b:
        raise SameVertexError(f"vertices must differ, got {a} twice")
    for v in (a, b):
        if not (1 <= v <= h.k):
            raise VertexOutOfRangeError(-1, v, h.k)


def _incidence_network(h: Hypergraph) -> _Network:
    """Unit-capacity vertex-edge incidence network as (head, adj).

    Node v is vertex v; edge i is split into nodes k+1+2i (in) and k+2+2i
    (out) joined by one unit arc, so each edge carries at most one path.
    Arcs come in pairs: even arc ids are the unit arcs, arc ^ 1 is the
    reverse.  adj[u] lists the arcs leaving u in a fixed order (a vertex's
    edges ascending; an edge's vertices ascending), which is what makes
    augmenting paths, and so the decomposed paths, deterministic.
    """
    head: list[int] = []
    adj: list[list[int]] = [[] for _ in range(h.k + 1 + 2 * len(h.edges))]

    def arc(u: int, v: int) -> None:
        adj[u].append(len(head))
        head.append(v)
        adj[v].append(len(head))
        head.append(u)

    for i, e in enumerate(h.edges):
        e_in = h.k + 1 + 2 * i
        arc(e_in, e_in + 1)
        for v in sorted(e.vertices):
            arc(v, e_in)
            arc(e_in + 1, v)
    return head, adj


def _unit_max_flow(
    net: _Network,
    sources: Sequence[int],
    sinks: Sequence[int],
    limit: int | None = None,
) -> tuple[int, list[int]]:
    """Edmonds-Karp from a vertex set to a disjoint vertex set.

    Returns (value, residual capacities); the flow on unit arc a is
    residual[a ^ 1].  Stops as soon as the value exceeds ``limit``, so the
    value is exact only when it is at most ``limit``.
    """
    head, adj = net
    residual = [1, 0] * (len(head) // 2)
    is_sink = [False] * len(adj)
    for t in sinks:
        is_sink[t] = True
    value = 0
    while limit is None or value <= limit:
        via = [-1] * len(adj)  # arc each reached node was reached by
        for s in sources:
            via[s] = -2
        end = -1
        queue = list(sources)
        for u in queue:
            for a in adj[u]:
                if residual[a] and via[head[a]] == -1:
                    v = head[a]
                    via[v] = a
                    if is_sink[v]:
                        end = v
                        break
                    queue.append(v)
            if end >= 0:
                break
        if end < 0:
            break
        while via[end] >= 0:
            a = via[end]
            residual[a] -= 1
            residual[a ^ 1] += 1
            end = head[a ^ 1]
        value += 1
    return value, residual


def _lambda(h: Hypergraph, net: _Network) -> int:
    # Vertex 1 is on one side of every cut, so lambda is the least 1-b flow;
    # each flow stops once it reaches the best value so far.
    lam = len(h.incident(1))
    for b in range(2, h.k + 1):
        lam = min(lam, _unit_max_flow(net, [1], [b], limit=lam - 1)[0])
    return lam


def min_cut(h: Hypergraph, weighted: bool = False) -> Cut:
    """Minimum bipartition cut.

    Unweighted: minimizes the number of crossing edges (their count is the
    edge-connectivity).  Weighted: minimizes the product of crossing levels.
    Ties resolve to the first side containing vertex 1 in mask order (bit
    v - 2 set when vertex v is on the side), so results are deterministic.

    When all levels are equal, L say, the product is L^|crossing| and both
    cuts are the same.  It is found by k - 1 flows for lambda and k - 1 more
    for the side: for v = k down to 2, v goes outside exactly when some
    minimum cut still puts it there.  Unequal levels enumerate all
    2^(k-1) - 1 sides, up to MAX_CUT_ENUM_VERTICES vertices.
    """
    _require_cut_preconditions(h)
    levels = h.levels()
    if weighted and len(set(levels)) > 1:
        return _min_rank_cut_by_enumeration(h, levels)
    net = _incidence_network(h)
    lam = _lambda(h, net)
    inside, outside = [1], []
    for v in range(h.k, 1, -1):
        value, _ = _unit_max_flow(net, inside, outside + [v], limit=lam)
        (outside if value == lam else inside).append(v)
    side = frozenset(inside)
    crossing = h.crossing(side)
    return Cut(side, crossing, prod(levels[i] for i in crossing))


def _min_rank_cut_by_enumeration(h: Hypergraph, levels: tuple[int, ...]) -> Cut:
    if h.k > MAX_CUT_ENUM_VERTICES:
        raise TooLargeError(
            f"k={h.k} exceeds the bound {MAX_CUT_ENUM_VERTICES} on enumerating "
            f"bipartitions for the min-cut rank with unequal levels"
        )
    best: Cut | None = None
    for side in _iter_sides(h.k):
        crossing = h.crossing(side)
        r = prod(levels[i] for i in crossing)
        if best is None or r < best.rank:
            best = Cut(side, crossing, r)
    assert best is not None
    return best


def edge_connectivity(h: Hypergraph) -> int:
    """Minimum number of crossing edges over all bipartitions (levels ignored)."""
    _require_cut_preconditions(h)
    return _lambda(h, _incidence_network(h))


def min_cut_rank(h: Hypergraph) -> int:
    """Minimum over bipartitions of the product of crossing-edge levels."""
    return min_cut(h, weighted=True).rank


def line_graph(h: Hypergraph) -> Graph:
    """Graph on edge indices; two edges are adjacent iff they share a vertex."""
    validate(h)
    m = len(h.edges)
    pairs = {
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if h.edges[i].vertices & h.edges[j].vertices
    }
    return Graph(m, frozenset(pairs))


def min_cut_separating(h: Hypergraph, a: int, b: int) -> int:
    """Minimum crossing-edge count over bipartitions with a inside, b outside."""
    _require_cut_preconditions(h)
    _require_vertex_pair(h, a, b)
    return _unit_max_flow(_incidence_network(h), [a], [b])[0]


def edge_disjoint_paths(h: Hypergraph, a: int, b: int) -> list[list[int]]:
    """Maximum family of pairwise edge-disjoint a-b paths.

    A path is a list of edge indices in which consecutive edges share a
    vertex, the first contains a and the last contains b.  Computed by
    unit-capacity max-flow on the vertex-edge incidence network (each edge
    node capped at one use), then decomposed deterministically: each step
    takes the smallest edge index, then the smallest vertex, that carries
    flow.  By Menger's theorem there are min_cut_separating(h, a, b) paths.
    """
    _require_cut_preconditions(h)
    _require_vertex_pair(h, a, b)
    net = _incidence_network(h)
    head, adj = net
    value, residual = _unit_max_flow(net, [a], [b])

    def follow(node: int) -> int:
        # use up one unit on the first unit arc out of node that carries flow
        arc = next(x for x in adj[node] if not x & 1 and residual[x ^ 1])
        residual[arc ^ 1] -= 1
        return head[arc]

    paths = []
    for _ in range(value):
        path: list[int] = []
        trail = [a]
        pos = {a: 0}
        node = a
        while node != b:
            e_in = follow(node)
            path.append((e_in - h.k - 1) // 2)
            node = follow(e_in + 1)
            if node in pos:
                # walked around a flow cycle: splice it out of the path
                j = pos[node]
                for dropped in trail[j + 1 :]:
                    del pos[dropped]
                trail = trail[: j + 1]
                path = path[:j]
            else:
                pos[node] = len(trail)
                trail.append(node)
        paths.append(path)
    return paths


# -- corpus builders ---------------------------------------------------------


def path_hypergraph(k: int) -> Hypergraph:
    """Path through vertices 1..k (k - 1 edges)."""
    return hypergraph(k, [{i, i + 1} for i in range(1, k)])


def cycle_hypergraph(k: int) -> Hypergraph:
    """Cycle on vertices 1..k."""
    return hypergraph(k, [{i, i % k + 1} for i in range(1, k + 1)])


def complete_uniform(k: int, l: int) -> Hypergraph:
    """All l-element subsets of 1..k, each once, in lexicographic order."""
    return hypergraph(k, [set(c) for c in combinations(range(1, k + 1), l)])


def single_full_edge(k: int, level: int = 2) -> Hypergraph:
    """One edge containing every vertex."""
    return hypergraph(k, [set(range(1, k + 1))], [level])
