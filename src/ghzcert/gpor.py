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
depends only on the directions that span it, so a sweep yields the
directions of the rational sweep's outputs, positive multiples of them.
One sweep orthogonalizes: each output is orthogonal to the earlier
non-neighbors' outputs, which a second sweep meets unchanged, so the second
sweep changes nothing and the first is already the fixed point.

The search policy lives in one place, :func:`gpor_candidates`: the banded
seed and draws from [-3, 3]^d first, draws from [-1000, 1000]^d only when
none of those verifies; it is lazy, so a caller that stops early checks
no start past it.  :func:`find_gpor` is its first result, and
:func:`verify_orthrep` the one general-position check.

General position is checked in one depth-first walk over the subsets in
lexicographic order, on whichever side of the matroid has fewer
coordinates.  Each prefix carries its integer Gram-Schmidt basis, so a
prefix that turns dependent condemns all of its extensions at once, and at
the last level each remaining element costs one inner product with the
normal of the prefix's hyperplane, the first nonzero residual there.
With l vectors in Q^d and lam = l - d < d, the walk runs over the
lam-subsets of the rows of an integer kernel basis instead: by matroid
duality (Whitney 1935; Oxley, *Matroid Theory*, ch. 2) a d-subset is a
basis exactly when the kernel rows of its complement are independent,
provided the vectors span Q^d.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, combinations
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import DimensionInfeasibleError, RetriesExhaustedError, TooLargeError
from .hypergraph import Graph
from .ratlinalg import IntVector, _kernel, _orthogonal_basis, _primitive, _residual

#: subset-enumeration guard for the general-position check
GENERAL_POSITION_SUBSET_LIMIT = 10**6


class OrthRep(NamedTuple):
    """Vectors (one per graph vertex, integer entries) labelling ``graph``."""

    graph: Graph
    d: int
    vectors: tuple[tuple[int, ...], ...]


def _plan(g: Graph, ordering: tuple[int, ...]) -> list[tuple[int, list[int]]]:
    """Each vertex in ``ordering`` with the non-adjacent vertices before it."""
    return [
        (v, [u for u in ordering[:idx] if not g.adjacent(u, v)])
        for idx, v in enumerate(ordering)
    ]


def _sweep(
    plan: list[tuple[int, list[int]]], f: dict[int, IntVector]
) -> dict[int, IntVector]:
    """One integer sweep over primitive directions ``f``: the primitive
    output directions."""
    out: dict[int, IntVector] = {}
    for v, before in plan:
        out[v] = _residual(_orthogonal_basis([out[u] for u in before]), f[v])
    return out


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


def find_gpor(g: Graph, d: int, seed: int = 0) -> OrthRep:
    """The first representation of :func:`gpor_candidates`, checked alone."""
    return next(gpor_candidates(g, d, seed, 1))


def gpor_candidates(g: Graph, d: int, seed: int = 0, count: int = 4) -> Iterator[OrthRep]:
    """Up to ``count`` distinct general-position orthogonal representations
    in Z^d, yielded in the order found.

    The search has two stages, each run until ``count`` distinct
    representations verify.  The first starts from the deterministic banded
    seed and then 16 maps drawn uniformly from [-3, 3]^d; small entries
    concentrate the value histogram, so its representations give the larger
    mode counts.  Only if none of them verifies does the second stage draw
    32 maps from [-1000, 1000]^d, without the banded seed, which the first
    already rejected.  Each stage draws from a fresh ``random.Random(seed)``,
    zero vectors resampled, so the whole search is reproducible.  Each start
    gets one sweep of its primitive directions, and a result not found
    before is verified and yielded at once; no start is drawn before the
    next representation is asked for.  Raises RetriesExhausted, at the
    first ``next``, if neither stage verifies.
    """
    if d < 0:
        raise DimensionInfeasibleError(f"dimension {d} is negative")
    if d == 0:
        # Every pair of edges shares a vertex and lam = m: the only
        # representation is m empty vectors, vacuously orthogonal and in
        # general position.
        yield OrthRep(g, 0, tuple(() for _ in range(g.n)))
        return
    band = dict(enumerate(_band_vectors(g.n, d)))
    reps = _verified(g, d, chain([band], _draws(seed, g.n, d, 3, 16)), count)
    first = next(reps, None)
    if first is None:
        reps = _verified(g, d, _draws(seed, g.n, d, 1000, 32), count)
        first = next(reps, None)
    if first is None:
        raise RetriesExhaustedError(1 + 16 + 32, 1000)
    yield first
    yield from reps


def _draws(
    seed: int, n: int, d: int, bound: int, draws: int
) -> Iterator[dict[int, IntVector]]:
    """``draws`` maps of n nonzero integer vectors, drawn uniformly from
    [-bound, bound]^d by ``random.Random(seed)``, a zero vector resampled.
    A coordinate is drawn as ``randint(-bound, bound)`` draws it, without
    its call chain: ``bits``-bit draws, redrawn above 2 bound."""
    rng = random.Random(seed)
    bits, top = (2 * bound + 1).bit_length(), 2 * bound

    def coordinate() -> int:
        r = rng.getrandbits(bits)
        while r > top:
            r = rng.getrandbits(bits)
        return r - bound

    for _ in range(draws):
        f = {}
        for v in range(n):
            while True:
                w = tuple(coordinate() for _ in range(d))
                if any(w):
                    break
            f[v] = w
        yield f


def _verified(
    g: Graph, d: int, starts: Iterable[dict[int, IntVector]], count: int
) -> Iterator[OrthRep]:
    """Up to ``count`` distinct verified sweeps of ``starts``, in order, each
    yielded as soon as it verifies."""
    plan = _plan(g, tuple(range(g.n)))
    found: list[OrthRep] = []
    for f in starts:
        out = _sweep(plan, {v: _primitive(w) for v, w in f.items()})
        rep = OrthRep(g, d, tuple(out[v] for v in range(g.n)))
        if rep not in found and all(map(any, rep.vectors)) and verify_orthrep(rep).ok:
            yield rep
            found.append(rep)
            if len(found) >= count:
                return


class OrthRepReport(NamedTuple):
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
    integer dot product per non-adjacent pair.  General position is decided
    for every s-subset, s = min(d, l), by one walk over the smaller side:
    the s-subsets of c when s <= l - s, else the (l - s)-subsets of the rows
    of an integer kernel basis of c, whose elimination also gives rank c.
    Below rank s every s-subset is dependent; at rank s an s-subset is
    independent exactly when the kernel rows of its complement are.  The
    dependent subsets are listed in lexicographic order either way, and
    more than 10^6 subsets raise TooLargeError before any is looked at.
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
        co = g.n - size
        if co >= size:
            dependent = _dependent(vecs, size)
        else:
            r, kernel = _kernel(vecs)
            if r < size:
                dependent = list(combinations(range(g.n), size))
            else:
                # complements of co-subsets in lexicographic order come in
                # reverse lexicographic order
                dependent = [
                    tuple(i for i in range(g.n) if i not in sub)
                    for sub in reversed(_dependent(kernel, co))
                ]
    zeros = tuple(v for v in range(g.n) if rep.d > 0 and not any(vecs[v]))
    return OrthRepReport(tuple(violations), tuple(dependent), zeros)


def _dependent(vectors: Sequence[IntVector], size: int) -> list[tuple[int, ...]]:
    """The linearly dependent ``size``-subsets of ``vectors``, each vector
    with ``size`` coordinates, in lexicographic order.

    One depth-first walk in lexicographic order.  Each prefix carries the
    integer Gram-Schmidt basis of its vectors, and an element whose
    residual against it is zero makes every extension of the prefix with it
    dependent, listed at once.  A prefix of size - 1 independent vectors
    spans a hyperplane, and the first last element with a nonzero residual
    gives its normal, so each later one is dependent on the prefix exactly
    when its inner product with the normal is zero.  The empty subset is
    independent.
    """
    l = len(vectors)
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], ortho: list[tuple[IntVector, int]]) -> None:
        depth = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if depth == size - 1:
            normal = None
            for i in range(start, l):
                if normal is None:
                    r = _residual(ortho, vectors[i])
                    if any(r):
                        normal = r
                        continue
                elif sum(map(mul, normal, vectors[i])):
                    continue
                out.append(prefix + (i,))
            return
        for i in range(start, l - size + depth + 1):
            r = _residual(ortho, vectors[i])
            if any(r):
                walk(prefix + (i,), ortho + [(r, sum(map(mul, r, r)))])
            else:
                rest = combinations(range(i + 1, l), size - depth - 1)
                out.extend(prefix + (i,) + tail for tail in rest)

    if size:
        walk((), [])
    return out
