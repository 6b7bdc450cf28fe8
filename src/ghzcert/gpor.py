"""General-position orthogonal representations of line graphs.

An orthogonal representation of a graph G on vertices 0..m-1 assigns each
vertex a vector in Q^d such that non-adjacent vertices get orthogonal
vectors.  It is in general position when every d of the vectors are linearly
independent.  For the line graph of a connected hypergraph with m edges and
edge-connectivity lam, such a representation exists in dimension d = m - lam
and that dimension is optimal.

The constructive route is the re-orthogonalization operator: given any
vector assignment f and a vertex ordering, replace each f(v) by its
component orthogonal to the span of the already-processed non-neighbors'
outputs.  A fixed point of this operator is an orthogonal representation,
and for a random starting f the result is in general position with
probability 1; over a finite random integer box it holds with high
probability, so we retry a few times and check exactly.

The sweep runs on integers.  Each output is kept as its primitive integer
direction, found by integer Gram-Schmidt over the earlier non-neighbors'
outputs (see :mod:`ratlinalg`).  Projection is linear in f(v) and a span
depends only on the directions that span it, so every sweep yields the
directions of the rational sweep's outputs, positive multiples of them.  A
sweep leaves the map fixed exactly when every projection coefficient is 0,
which is when the rational sweep returns its input unchanged; so both settle
at the same sweep or not at all, and the primitive vectors they end with are
identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import mul

from .errors import (
    DimMismatchError,
    DimensionInfeasibleError,
    RetriesExhaustedError,
    TooLargeError,
)
from .hypergraph import Graph
from .ratlinalg import (
    GENERAL_POSITION_SUBSET_LIMIT,
    IntVector,
    RatVector,
    _component,
    _int_row,
    _orthogonal_basis,
    _primitive,
    _residual,
    rank,
    vector,
)

DEFAULT_SEED_BOUND = 1000
DEFAULT_MAX_RETRIES = 32


@dataclass(frozen=True)
class OrthRep:
    """Vectors (one per graph vertex, integer entries) labelling ``graph``."""

    graph: Graph
    d: int
    vectors: tuple[tuple[int, ...], ...]

    def vector(self, v: int) -> RatVector:
        return vector(self.vectors[v])

    def to_json_dict(self) -> dict:
        return {"d": self.d, "vectors": [list(v) for v in self.vectors]}


def _plan(g: Graph, ordering: tuple[int, ...]) -> list[tuple[int, list[int]]]:
    """Each vertex in ``ordering`` with the non-adjacent vertices before it."""
    return [
        (v, [u for u in ordering[:idx] if not g.adjacent(u, v)])
        for idx, v in enumerate(ordering)
    ]


def _sweep(
    plan: list[tuple[int, list[int]]], f: dict[int, IntVector]
) -> tuple[dict[int, IntVector], bool]:
    """One integer sweep over primitive directions ``f``.

    Returns the primitive output directions and whether any projection
    coefficient was nonzero; when none was, the outputs are ``f`` itself.
    """
    out: dict[int, IntVector] = {}
    moved = False
    for v, before in plan:
        out[v], m = _residual(_orthogonal_basis([out[u] for u in before]), f[v])
        moved = moved or m
    return out, moved


def orthogonalize_map(
    g: Graph,
    f: dict[int, RatVector],
    ordering: tuple[int, ...] | None = None,
) -> dict[int, RatVector]:
    """One sweep of the re-orthogonalization operator, in exact rationals.

    Processes vertices in ``ordering`` (default 0..n-1).  The output at v is
    f(v) minus its projection onto the span of the outputs already produced
    at vertices non-adjacent to v; exact zero vectors contribute nothing to
    the span.  A fixed point of this sweep assigns orthogonal vectors to
    every non-adjacent pair.

    The sweep itself runs on the integer directions of f; the output at v
    is the exact component of f(v) along its integer output direction, which
    is orthogonal to the span it was projected off.
    """
    if ordering is None:
        ordering = tuple(range(g.n))
    ints = {v: _primitive(_int_row(f[v])) for v in ordering}
    if len({len(w) for w in ints.values()}) > 1:
        raise DimMismatchError("vectors of unequal dimension")
    out, _ = _sweep(_plan(g, ordering), ints)
    return {v: _component(f[v], out[v]) for v in ordering}


def _band_vectors(n: int, d: int) -> list[tuple[int, ...]]:
    """Deterministic banded seed: vertex j gets e_{j-1} + e_j, indices clipped.

    On the line graph of a path this is already a fixed point of the sweep
    and lies in general position for every length, so it makes a good first
    attempt before random seeding.
    """
    vecs = []
    for j in range(n):
        coords = [0] * d
        for t in {min(max(j - 1, 0), d - 1), min(j, d - 1)}:
            coords[t] += 1
        vecs.append(tuple(coords))
    return vecs


def _random_map(rng: random.Random, n: int, d: int, bound: int) -> dict[int, IntVector]:
    """Nonzero integer vectors drawn uniformly from [-bound, bound]^d."""
    f = {}
    for v in range(n):
        while True:
            w = tuple(rng.randint(-bound, bound) for _ in range(d))
            if any(w):
                break
        f[v] = w
    return f


def _settle(
    g: Graph, f: dict[int, IntVector], sweeps: int = 8
) -> dict[int, IntVector] | None:
    """Iterate the sweep until it stabilizes; None if it fails to settle.

    Works on primitive directions; a sweep with every projection
    coefficient 0 is the fixed point.
    """
    plan = _plan(g, tuple(range(g.n)))
    cur = {v: _primitive(w) for v, w in f.items()}
    for _ in range(sweeps):
        nxt, moved = _sweep(plan, cur)
        if not moved:
            return cur
        cur = nxt
    return None


def _rep_from_map(g: Graph, d: int, f: dict[int, IntVector]) -> OrthRep | None:
    settled = _settle(g, f)
    if settled is None:
        return None
    vecs = tuple(settled[v] for v in range(g.n))
    if not all(map(any, vecs)):
        return None
    rep = OrthRep(g, d, vecs)
    report = verify_orthrep(rep)
    return rep if report.ok else None


def find_gpor(
    g: Graph,
    d: int,
    seed: int = 0,
    bound: int = DEFAULT_SEED_BOUND,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> OrthRep:
    """Search for a general-position orthogonal representation in Q^d.

    Attempt 0 uses the deterministic banded seed; later attempts draw
    integer vectors uniformly from [-bound, bound]^d (resampling any zero
    vector) with a RNG seeded from ``seed``, so the whole search is
    reproducible.  Raises RetriesExhausted if no attempt verifies.
    """
    if d < 0:
        raise DimensionInfeasibleError(f"dimension {d} is negative")
    if d == 0:
        # Every pair of edges shares a vertex and lam = m: the only
        # representation is m empty vectors, vacuously orthogonal and in
        # general position.
        return OrthRep(g, 0, tuple(() for _ in range(g.n)))
    rep = _rep_from_map(g, d, dict(enumerate(_band_vectors(g.n, d))))
    if rep is not None:
        return rep
    rng = random.Random(seed)
    for _ in range(max_retries):
        rep = _rep_from_map(g, d, _random_map(rng, g.n, d, bound))
        if rep is not None:
            return rep
    raise RetriesExhaustedError(max_retries, bound)


def gpor_candidates(
    g: Graph,
    d: int,
    seed: int = 0,
    count: int = 4,
    bound: int = DEFAULT_SEED_BOUND,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[OrthRep]:
    """Up to ``count`` distinct verified representations, banded seed first.

    Used by certificate synthesis to pick the candidate with the best
    solution count; always deterministic for a given seed.
    """
    if d <= 0:
        return [find_gpor(g, d, seed=seed, bound=bound, max_retries=max_retries)]
    found: list[OrthRep] = []
    rep = _rep_from_map(g, d, dict(enumerate(_band_vectors(g.n, d))))
    if rep is not None:
        found.append(rep)
    rng = random.Random(seed)
    attempts = 0
    while len(found) < count and attempts < max_retries:
        attempts += 1
        rep = _rep_from_map(g, d, _random_map(rng, g.n, d, bound))
        if rep is not None and rep not in found:
            found.append(rep)
    if not found:
        raise RetriesExhaustedError(max_retries, bound)
    return found


@dataclass(frozen=True)
class OrthRepReport:
    orthogonality_violations: tuple[tuple[int, int, str], ...]
    dependent_subsets: tuple[tuple[int, ...], ...]
    zero_vectors: tuple[int, ...]
    #: vertices whose vector does not have exactly d coordinates
    wrong_width: tuple[int, ...] = ()
    #: the number of vectors, when it is not the number of vertices
    vector_count: int | None = None

    @property
    def ok(self) -> bool:
        return not (
            self.orthogonality_violations
            or self.dependent_subsets
            or self.zero_vectors
            or self.wrong_width
            or self.vector_count is not None
        )


def verify_orthrep(rep: OrthRep) -> OrthRepReport:
    """Exhaustively check width, orthogonality, general position and
    nonzeroness.

    There must be one vector per vertex, each with exactly ``rep.d``
    coordinates; if not, that is the whole report.  Orthogonality is an
    integer dot product per non-adjacent pair, and general position one
    exact integer rank per d-subset.
    """
    g = rep.graph
    vecs = rep.vectors
    if len(vecs) != g.n:
        return OrthRepReport((), (), (), vector_count=len(vecs))
    wrong = tuple(v for v in range(g.n) if len(vecs[v]) != rep.d)
    if wrong:
        return OrthRepReport((), (), (), wrong)
    violations = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adjacent(u, v):
                ip = sum(map(mul, vecs[u], vecs[v]))
                if ip != 0:
                    violations.append((u, v, str(ip)))
    dependent = []
    if rep.d > 0:
        size = min(rep.d, g.n)
        if comb(g.n, size) > GENERAL_POSITION_SUBSET_LIMIT:
            raise TooLargeError(
                f"C({g.n}, {size}) subsets exceed the general-position "
                f"check limit {GENERAL_POSITION_SUBSET_LIMIT}"
            )
        for subset in combinations(range(g.n), size):
            if rank([vecs[i] for i in subset]) < size:
                dependent.append(subset)
    zeros = tuple(v for v in range(g.n) if rep.d > 0 and not any(vecs[v]))
    return OrthRepReport(tuple(violations), tuple(dependent), zeros)
