"""Hypergraph model, cuts and connectivity.

Vertices are 1..k; edges are nonempty vertex subsets with an integer level
r >= 2 (the number of terms of the shared state living on that edge).  A
Hypergraph checks this once, when it is built, so every function here and
downstream takes it as valid.  Edge identity is positional: the same vertex
set may occur several times and each occurrence is a distinct edge,
addressed by its 0-based index.

Every cut is one Edmonds-Karp max-flow on the vertex-edge incidence network
(Menger's theorem for hypergraphs, Lawler 1973) whose edge nodes have
capacity 1, to count crossing edges, or their level, to multiply levels:
max-flow needs only +, -, min and comparison, so it runs exactly in the
ordered group (Q+, *), where 1 is zero.  One scan gives the minimum and
its witness side: for v = k down to 2 it runs one flow from vertex 1 and
every vertex scanned before v to v, k - 1 at most, stopping each flow at the
least value so far and the scan at the least edge capacity, which every cut
meets.  Two exact bounds prune it: before any flow has finished, a flow
stops once it exceeds the lightest vertex cut (the capacities at one
vertex), an upper bound on the minimum; and a sink is skipped when its edges
that already meet the sources, each a path of its own, reach the value at
which its flow would stop.  The least flow is the minimum, and the side is
what the residual of the first flow to reach it still reaches from its
sources; neither bound stops that flow.  With equal
levels L every cut has rank L^|crossing|, so the weighted minimum cut is
the lambda cut, of rank L^lambda: ``min_cuts`` then runs one scan.
"""

from __future__ import annotations

from collections import _tuplegetter
from collections.abc import Iterable, Sequence
from itertools import chain, combinations
from math import gcd, prod

from .errors import (
    BadLevelError,
    DisconnectedError,
    EmptyEdgeError,
    SameVertexError,
    TooFewVerticesError,
    VertexOutOfRangeError,
)

# (head, adj, capacity) of the incidence network; see _incidence_network
_Network = tuple[list[int], list[list[int]], list]

_INT = frozenset((int,))


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is not."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def _require_level(n: int) -> None:
    """Refuse a level n that is no int >= 2, as an edge level is refused."""
    if type(n) is not int:
        raise BadLevelError(f"level n={n!r} is not an integer")
    if n < 2:
        raise BadLevelError(f"level n={n} < 2")


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


def _repeated(keys: Iterable):
    """The first key that occurs twice in ``keys``."""
    seen = set()
    return next(key for key in keys if key in seen or seen.add(key))


class _Record(tuple):
    """A tuple with named fields, as ``collections.namedtuple`` makes one,
    but written out, so that building the class compiles nothing.

    A record annotates its fields in order, declares ``__slots__ = ()`` and
    a ``__new__`` that takes the fields in that order.  Each field is read
    by the C getter that namedtuple installs.  Equality and hashing are the
    plain tuple's.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = tuple(cls.__dict__["__annotations__"])
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)  # through __new__, so a record checks it

    def _replace(self, /, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self)
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)  # pickle and copy rebuild through __new__


class Edge(_Record):
    __slots__ = ()
    vertices: frozenset[int]
    level: int

    def __new__(cls, vertices: Iterable[int], level: int = 2) -> Edge:
        # frozen, so that a Hypergraph's checks hold for its life
        return tuple.__new__(cls, (frozenset(vertices), level))


class Hypergraph(_Record):
    __slots__ = ()
    k: int
    edges: tuple[Edge, ...]

    def __new__(cls, k: int, edges: Iterable[Edge]) -> Hypergraph:
        _json_int(k, "k")
        edges = tuple(edges)
        for i, e in enumerate(edges):
            if not e.vertices:
                raise EmptyEdgeError(i)
            for v in e.vertices:
                if type(v) is not int or not (1 <= v <= k):
                    raise VertexOutOfRangeError(i, v, k)
            if type(e.level) is not int:
                raise BadLevelError(f"edge {i} level {e.level!r} is not an integer", i)
            if e.level < 2:
                raise BadLevelError(f"edge {i} has level {e.level} < 2", i)
        return tuple.__new__(cls, (k, edges))

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
        edges = []
        for i, e in enumerate(obj["edges"]):
            row = _json_ints(e["vertices"], "edge vertices")
            vertices = frozenset(row)
            if len(vertices) != len(row):
                # a set keeps one of a repeated vertex
                raise ValueError(f"edge {i} vertices repeat {_repeated(row)}")
            edges.append(Edge(vertices, _json_int(e.get("level", 2), "edge level")))
        return cls(k, edges)


def hypergraph(
    k: int,
    edge_sets: Iterable[Iterable[int]],
    levels: Sequence[int] | None = None,
) -> Hypergraph:
    """Build a Hypergraph from plain vertex collections (levels default 2)."""
    sets = list(edge_sets)
    if levels is None:
        levels = [2] * len(sets)
    elif len(levels) != len(sets):
        raise ValueError(f"{len(levels)} levels for {len(sets)} edges")
    return Hypergraph(k, (Edge(s, lv) for s, lv in zip(sets, levels)))


class Cut(_Record):
    """One side of a bipartition plus the edges it severs.

    ``rank`` is the exact product of the crossing edges' levels; its log2 is
    the bipartite log-rank of the associated state across this cut.
    """

    __slots__ = ()
    side: frozenset[int]
    crossing: tuple[int, ...]
    rank: int

    def __new__(cls, side, crossing, rank) -> Cut:
        return tuple.__new__(cls, (side, crossing, rank))


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1 (used for line graphs)."""

    __slots__ = ()
    n: int
    edges: frozenset[tuple[int, int]]

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]] = frozenset()) -> Graph:
        edges = frozenset(edges)  # frozen, as in Hypergraph
        for a, b in edges:
            if not (0 <= a < b < n):
                raise ValueError(f"bad edge ({a}, {b}) for n={n}")
        return tuple.__new__(cls, (n, edges))

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edges


def graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    return Graph(n, ((a, b) if a < b else (b, a) for a, b in pairs))


def is_connected(h: Hypergraph) -> bool:
    """True iff walks alternating vertices and incident edges reach everywhere.

    Each vertex-edge incidence is visited once: an edge is walked when the
    first of its vertices is reached, and skipped from the others.
    """
    if h.k <= 1:
        return True
    edges_at: dict[int, list[int]] = {}
    for i, e in enumerate(h.edges):
        for v in e.vertices:
            edges_at.setdefault(v, []).append(i)
    walked = [False] * len(h.edges)
    seen = {1}
    queue = [1]
    for v in queue:
        for i in edges_at.get(v, ()):
            if not walked[i]:
                walked[i] = True
                for w in h.edges[i].vertices:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return len(queue) == h.k


def _require_cut_preconditions(h: Hypergraph) -> None:
    if h.k < 2:
        raise TooFewVerticesError(f"k={h.k}; cuts need at least 2 vertices")
    if not is_connected(h):
        raise DisconnectedError("hypergraph is disconnected")


def _require_vertex_pair(h: Hypergraph, a: int, b: int) -> None:
    # a float or bool is not a vertex, as in Hypergraph
    for v in (a, b):
        if type(v) is not int or not (1 <= v <= h.k):
            raise VertexOutOfRangeError(None, v, h.k)
    if a == b:
        raise SameVertexError(f"vertices must differ, got {a} twice")


class _Level:
    """A level as a capacity, in (Q+, *) written additively: + multiplies,
    - divides and 1 is zero, so a flow value is a product of levels.

    Kept as num/den in lowest terms, so the search's truth test is one int
    comparison; every comparison is cross-multiplied, den being positive.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other: _Level) -> _Level:
        return _Level(self.num * other.num, self.den * other.den)

    def __sub__(self, other: _Level) -> _Level:
        return _Level(self.num * other.den, self.den * other.num)

    def __eq__(self, other: _Level) -> bool:
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: _Level) -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: _Level) -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: _Level) -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: _Level) -> bool:
        return self.num * other.den >= other.num * self.den

    def __bool__(self) -> bool:
        return self.num != self.den


def _incidence_network(h: Hypergraph, by_level: bool = False) -> _Network:
    """Vertex-edge incidence network as (head, adj, capacity).

    Node v is vertex v; edge i is split into nodes k+1+2i (in) and k+2+2i
    (out) joined by one arc.  Every arc of edge i has capacity 1 (each edge
    carries at most one path) or, ``by_level``, its level as a _Level.  Arc
    a ^ 1 is the reverse of forward arc a (even), with capacity zero.
    adj[u] lists the arcs leaving u in a fixed order (a vertex's edges
    ascending; an edge's vertices ascending), which is what makes augmenting
    paths, and so the decomposed paths, deterministic.
    """
    head: list[int] = []
    adj: list[list[int]] = [[] for _ in range(h.k + 1 + 2 * len(h.edges))]
    cap: list = []
    for i, e in enumerate(h.edges):
        e_in, e_out = h.k + 1 + 2 * i, h.k + 2 + 2 * i
        # arc e_in -> e_out; then per vertex v, arcs v -> e_in and
        # e_out -> v; each forward arc followed by its reverse
        adj[e_in].append(len(head))
        adj[e_out].append(len(head) + 1)
        head += (e_out, e_in)
        for v in sorted(e.vertices):
            a = len(head)
            adj[v].append(a)
            adj[e_in].append(a + 1)
            adj[e_out].append(a + 2)
            adj[v].append(a + 3)
            head += (e_in, v, v, e_out)
        if by_level:
            c = _Level(e.level)
            cap += (c, c - c) * (1 + 2 * len(e.vertices))
    return head, adj, cap if by_level else [1, 0] * (len(head) // 2)


def _search(net: _Network, residual: list, sources: list[int], sink: int) -> list[int]:
    """Breadth-first search of the residual network from ``sources``.

    Returns, per node, the arc it was reached by: -2 for a source, -1 for a
    node not reached.  The search stops at ``sink``; when it does not reach
    it, the nodes reached are a minimum cut's source side (Ford-Fulkerson).
    """
    head, adj, _ = net
    via = [-1] * len(adj)
    for s in sources:
        via[s] = -2
    queue = list(sources)
    for u in queue:
        for a in adj[u]:
            if residual[a] and via[head[a]] == -1:
                v = head[a]
                via[v] = a
                if v == sink:
                    return via
                queue.append(v)
    return via


def _max_flow(net: _Network, sources: list[int], sink: int, residual: list):
    """Edmonds-Karp from a vertex set to one vertex outside it.

    Yields the flow value, zero first and then after each augmenting path,
    so each caller stops once it knows enough; run out, the last value is
    the maximum.  ``residual``, a copy of the capacities to start with, is
    updated in place: the flow on forward arc a is residual[a ^ 1].
    """
    head, _, cap = net
    value = cap[1]  # a reverse arc's capacity: zero
    yield value
    while True:
        via = _search(net, residual, sources, sink)
        if via[sink] == -1:
            return
        step, v = residual[via[sink]], sink
        while via[v] >= 0:  # the bottleneck, then the augmentation
            a = via[v]
            if residual[a] < step:
                step = residual[a]
            v = head[a ^ 1]
        v = sink
        while via[v] >= 0:
            a = via[v]
            residual[a] -= step
            residual[a ^ 1] += step
            v = head[a ^ 1]
        value += step
        yield value


def _scan(
    h: Hypergraph, net: _Network
) -> tuple[int | _Level, list[int], int, list]:
    # For v = k down to 2, one flow from S = {1, k, ..., v + 1} to v, then v
    # joins S.  A minimum cut with 1 inside first leaves out some scanned v
    # with all of S inside, so the least flow is lambda.  A flow is dismissed
    # once it reaches the least so far or, before there is one, once it
    # exceeds the lightest vertex cut (the capacities at one vertex), which
    # bounds lambda from above.  A sink is skipped when its edges that
    # already meet S, each an S-v path of its own (Menger), would dismiss its
    # flow.  The scan stops at the least edge capacity, which every cut of a
    # connected hypergraph meets.  Returns (lambda, S, v, residual) of the
    # first flow that reached lambda; no bound dismisses it.
    head, adj, cap = net
    zero, floor = cap[1], min(cap[::2])
    # adj[u][::2] holds one arc per edge at u, with that edge's capacity
    ceiling = min(sum((cap[a] for a in adj[u][::2]), zero) for u in range(1, h.k + 1))
    met = {head[a] for a in adj[1][::2]}  # the in-nodes of edges meeting S
    sources = [1]
    best = None

    def dismissed(value) -> bool:
        return value >= best[0] if best else value > ceiling

    for v in range(h.k, 1, -1):
        paths = sum((cap[a] for a in adj[v][::2] if head[a] in met), zero)
        if not dismissed(paths):
            residual = list(cap)
            for value in _max_flow(net, sources, v, residual):
                if dismissed(value):
                    break
            else:
                best = value, sources[:], v, residual
                if value == floor:
                    break
        sources.append(v)
        met.update(head[a] for a in adj[v][::2])
    return best


def min_cut(h: Hypergraph, weighted: bool = False) -> Cut:
    """Minimum bipartition cut.

    Unweighted: minimizes the number of crossing edges (their count is the
    edge-connectivity).  Weighted: minimizes the product of crossing levels.
    Ties resolve to the first side containing vertex 1 in mask order (bit
    v - 2 set when vertex v is on the side), so results are deterministic.

    One scan of at most k - 1 flows gives both the minimum and the side: for
    v = k down to 2, a flow from 1 and every vertex already scanned to v.
    Each flow before the first that reaches the minimum exceeds it, so every
    minimum cut keeps those flows' sinks with 1; the side is what the first
    minimal flow's residual still reaches from its sources, the vertices
    every minimum cut with its sink outside keeps inside.  The weighted cut
    flows on levels.  No flow runs past the lightest vertex cut, and a sink
    whose edges to the vertices already scanned reach the least value so far
    runs no flow: neither can be the first to reach the minimum.
    """
    _require_cut_preconditions(h)
    net = _incidence_network(h, by_level=weighted)
    _, sources, sink, residual = _scan(h, net)
    via = _search(net, residual, sources, sink)
    side = frozenset(u for u in range(1, h.k + 1) if via[u] != -1)
    crossing = h.crossing(side)
    return Cut(side, crossing, prod(h.edges[i].level for i in crossing))


def min_cuts(h: Hypergraph) -> tuple[Cut, Cut]:
    """``(min_cut(h), min_cut(h, weighted=True))`` from one scan when levels
    are equal, L say: every cut then has rank L^|crossing|, so the weighted
    minimum cut is the lambda cut, of rank L^lambda."""
    cut = min_cut(h)
    return cut, (cut if len(set(h.levels())) == 1 else min_cut(h, weighted=True))


def edge_connectivity(h: Hypergraph) -> int:
    """Minimum number of crossing edges over all bipartitions (levels ignored)."""
    _require_cut_preconditions(h)
    return _scan(h, _incidence_network(h))[0]


def line_graph(h: Hypergraph) -> Graph:
    """Graph on edge indices; two edges are adjacent iff they share a vertex."""
    m = len(h.edges)
    pairs = {
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if h.edges[i].vertices & h.edges[j].vertices
    }
    return Graph(m, pairs)


def edge_disjoint_paths(h: Hypergraph, a: int, b: int) -> list[list[int]]:
    """Maximum family of pairwise edge-disjoint a-b paths.

    A path is a list of edge indices in which consecutive edges share a
    vertex, the first contains a and the last contains b.  Computed by
    unit-capacity max-flow on the vertex-edge incidence network (each edge
    node capped at one use), then decomposed deterministically: each step
    takes the smallest edge index, then the smallest vertex, that carries
    flow.  By Menger's theorem there are as many paths as edges in a
    minimum cut with a inside and b outside.
    """
    _require_cut_preconditions(h)
    _require_vertex_pair(h, a, b)
    net = _incidence_network(h)
    head, adj, cap = net
    residual = list(cap)
    value = max(_max_flow(net, [a], b, residual))

    def follow(node: int) -> int:
        # use up one unit on the first forward arc out of node that carries flow
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
