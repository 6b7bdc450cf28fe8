"""Distillation protocol synthesis, certificates and rates.

The pipeline: for a connected hypergraph H with l edges and
edge-connectivity lam, find a general-position orthogonal representation
c of the line graph in dimension d = l - lam, pick a target vector g
maximizing the number of grid points i in [0, n-1]^l with sum_e i_e c_e
= g, and distribute the exponent form ||sum_e c_e i_e - g||^2 among the
vertices so each vertex's share only reads its own incident indices.
Applying epsilon^(local share) diagonally at every site sends the n-level
edge-product state to a GHZ state with M terms as epsilon -> 0, where M
is the solution count.  Everything needed to replay that claim is packed
into a Certificate.

Counting is exact integer work.  The value histogram behind the choice of
g convolves edge by edge on d-vectors packed into single offset integers,
whose order is lexicographic.  The solutions are solved for, not searched:
general position makes the last d vectors a basis, so each of the n^lam
assignments to the first lam edges fixes the last d indices through one
integer solve, and M <= n^lam holds by construction.  Along the last free
index the solve is linear, so the solutions come in n^(lam-1) blocks, each
an arithmetic progression zipped from ranges.

Certificates are written in the layout of json.dumps(indent=2,
sort_keys=True), and solution hashes over compact JSON, but rows of ints
are formatted by %-templates and joins rather than by the pure-Python
encoder; the bytes are the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product, repeat
from operator import mul

from .errors import (
    BadGridLimitError,
    BadLevelError,
    DimMismatchError,
    GhzcertError,
    GridTooLargeError,
    LevelsUnsupportedError,
    NotGeneralPositionError,
    NotOrthRepError,
    RetriesExhaustedError,
)
from .gpor import OrthRep, find_gpor, gpor_candidates, verify_orthrep
from .hypergraph import (
    Graph,
    Hypergraph,
    edge_connectivity,
    edge_disjoint_paths,
    line_graph,
    min_cut_rank,
    validate,
    _INT,
    _json_int,
    _json_int_rows,
    _json_ints,
    _require_cut_preconditions,
)
from .ratlinalg import rank
from .tensor import (
    apply_local_diagonal,
    check_ghz_structure,
    ghz_state,
    leading_term,
)

DEFAULT_GRID_LIMIT = 10**8
DEEP_GRID_LIMIT = 10**6
SOLUTION_LIST_CAP = 10**4
CANDIDATE_COUNT = 4
_HASH_CHUNK = 4096


def _grid_limit() -> int:
    raw = os.environ.get("GHZCERT_MAX_GRID")
    if raw is None:
        return DEFAULT_GRID_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise BadGridLimitError(raw) from None
    if limit < 1:
        raise BadGridLimitError(raw)
    return limit


def _check_grid(l: int, n: int) -> None:
    size = n**l
    limit = _grid_limit()
    if size > limit:
        raise GridTooLargeError(size, limit)


def _iinner(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


# -- exponent assignment -----------------------------------------------------


@dataclass(frozen=True)
class QuadraticAssignment:
    """Integer quadratic forms, one per vertex, in the edge indices.

    Vertex j (1-based; slot j - 1 here) contributes
        sum q[e,f] i_e i_f + sum lam[e] i_e + const
    and may only mention edges incident to j.  Summed over vertices the
    contributions reproduce ||sum_e c_e i_e - g||^2 exactly.
    """

    k: int
    l: int
    quad: tuple[dict[tuple[int, int], int], ...]
    lin: tuple[dict[int, int], ...]
    const: tuple[int, ...]

    def local_exponent(self, vertex: int, i: tuple[int, ...]) -> int:
        j = vertex - 1
        total = self.const[j]
        for (e, f), q in self.quad[j].items():
            total += q * i[e] * i[f]
        for e, lam_e in self.lin[j].items():
            total += lam_e * i[e]
        return total

    def total_exponent(self, i: tuple[int, ...]) -> int:
        return sum(self.local_exponent(j, i) for j in range(1, self.k + 1))

    def site_function(self, h: Hypergraph, vertex: int):
        """Callable on site labels of ghz_state(h, n), for diagonal action."""
        pos = {e: idx for idx, e in enumerate(h.incident(vertex))}
        j = vertex - 1
        quad = [(pos[e], pos[f], q) for (e, f), q in self.quad[j].items()]
        lin = [(pos[e], c) for e, c in self.lin[j].items()]
        const = self.const[j]

        def exp_fn(label: tuple[int, ...]) -> int:
            total = const
            for a, b, q in quad:
                total += q * label[a] * label[b]
            for a, c in lin:
                total += c * label[a]
            return total

        return exp_fn

    def mentioned_edges(self, vertex: int) -> set[int]:
        j = vertex - 1
        out = set()
        for e, f in self.quad[j]:
            out.add(e)
            out.add(f)
        out.update(self.lin[j])
        return out

    def aggregate(self) -> tuple[dict[tuple[int, int], int], dict[int, int], int]:
        """Coefficient tables of the summed form, zero entries dropped."""
        quad: dict[tuple[int, int], int] = {}
        lin: dict[int, int] = {}
        const = 0
        for j in range(self.k):
            for key, q in self.quad[j].items():
                quad[key] = quad.get(key, 0) + q
            for e, c in self.lin[j].items():
                lin[e] = lin.get(e, 0) + c
            const += self.const[j]
        quad = {key: q for key, q in quad.items() if q != 0}
        lin = {e: c for e, c in lin.items() if c != 0}
        return quad, lin, const

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "quad": [
                        [e, f, q] for (e, f), q in sorted(self.quad[j].items())
                    ],
                    "lin": [[e, c] for e, c in sorted(self.lin[j].items())],
                    "const": self.const[j],
                }
                for j in range(self.k)
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict, l: int) -> "QuadraticAssignment":
        rows = obj["vertices"]
        quad = tuple(
            {(e, f): q for e, f, q in _json_int_rows(row["quad"], "quad terms")}
            for row in rows
        )
        lin = tuple(dict(_json_int_rows(row["lin"], "lin terms")) for row in rows)
        const = _json_ints([row["const"] for row in rows], "const")
        return cls(len(rows), l, quad, lin, const)


def build_exponent_assignment(
    h: Hypergraph, rep: OrthRep, g: tuple[int, ...]
) -> QuadraticAssignment:
    """Distribute ||sum_e c_e i_e - g||^2 over the vertices.

    Diagonal and linear terms of edge e land at e's smallest incident
    vertex; a cross term for edges e < f (present only when <c_e, c_f> is
    nonzero) lands at their smallest common vertex, which exists precisely
    because c is an orthogonal representation of the line graph; the
    constant <g, g> lands at vertex 1.
    """
    validate(h)
    l = h.l
    if rep.graph.n != l:
        raise DimMismatchError(
            f"representation covers {rep.graph.n} edges, hypergraph has {l}"
        )
    if len(g) != rep.d:
        raise DimMismatchError(f"g has {len(g)} entries, expected {rep.d}")
    quad: list[dict[tuple[int, int], int]] = [{} for _ in range(h.k)]
    lin: list[dict[int, int]] = [{} for _ in range(h.k)]
    const = [0] * h.k
    vecs = rep.vectors
    for e in range(l):
        host = min(h.edges[e].vertices) - 1
        quad[host][(e, e)] = _iinner(vecs[e], vecs[e])
        coef = -2 * _iinner(vecs[e], g)
        if coef:
            lin[host][e] = coef
    for e in range(l):
        for f in range(e + 1, l):
            ip = _iinner(vecs[e], vecs[f])
            if ip == 0:
                continue
            common = h.edges[e].vertices & h.edges[f].vertices
            if not common:
                raise NotOrthRepError(e, f)
            quad[min(common) - 1][(e, f)] = 2 * ip
    const[0] = _iinner(g, g)
    return QuadraticAssignment(
        h.k, l, tuple(quad), tuple(lin), tuple(const)
    )


# -- solution counting -------------------------------------------------------


def _packed_histogram(rep: OrthRep, n: int) -> tuple[dict[int, int], int, int]:
    """Counts of sum_e i_e c_e over the grid, keyed by packed integers.

    With off = C'(n-1) and base B = 2 off + 1, the d-vector v is stored as
    sum_t (v_t + off) B^(d-1-t).  Every partial sum over a prefix of the
    edges lies in the box [-off, off]^d, so each digit stays in [0, B):
    packing is injective and integer order is lexicographic order.  Returns
    (histogram, off, B).
    """
    _check_grid(rep.graph.n, n)
    if any(len(v) != rep.d for v in rep.vectors):
        raise DimMismatchError(f"edge vectors must all have dimension {rep.d}")
    off = c_prime(rep) * (n - 1)
    base = 2 * off + 1

    def pack(v) -> int:
        key = 0
        for x in v:
            key = key * base + x
        return key

    hist = {pack((off,) * rep.d): 1}
    for ce in rep.vectors:
        step = pack(ce)
        shifts = [i * step for i in range(1, n)]
        nxt = dict(hist)  # the shift by 0
        get = nxt.get
        for key, cnt in hist.items():
            for s in shifts:
                s += key
                nxt[s] = get(s, 0) + cnt
        hist = nxt
    return hist, off, base


def _unpack(key: int, d: int, off: int, base: int) -> tuple[int, ...]:
    digits = []
    for _ in range(d):
        key, r = divmod(key, base)
        digits.append(r - off)
    return tuple(reversed(digits))


def value_histogram(rep: OrthRep, n: int) -> dict[tuple[int, ...], int]:
    """Counts of sum_e i_e c_e over the grid.

    A view of the packed-integer convolution behind :func:`choose_g`: each
    edge shifts the histogram by i * pack(c_e) for i in [0, n-1], and the
    keys are unpacked into d-vectors only here.
    """
    hist, off, base = _packed_histogram(rep, n)
    return {_unpack(key, rep.d, off, base): cnt for key, cnt in hist.items()}


def choose_g(rep: OrthRep, n: int) -> tuple[tuple[int, ...], int]:
    """Most frequent grid value of sum_e i_e c_e (lex-smallest on ties).

    Packed keys order like their vectors, so the winner is the smallest key
    holding the largest count; nothing is sorted and only it is unpacked.
    """
    packed = _packed_histogram(rep, n)
    best_m = max(packed[0].values())
    return _lex_smallest_mode(packed, best_m, rep.d), best_m


def _lex_smallest_mode(packed, best_m: int, d: int) -> tuple[int, ...]:
    hist, off, base = packed
    best_key = min(key for key, cnt in hist.items() if cnt == best_m)
    return _unpack(best_key, d, off, base)


def _pivot_inverse(pivots) -> tuple[list[list[int]], int]:
    """Integer A and D > 0 with A C_P = D I, C_P having the pivots as columns.

    Fraction-free Gauss-Jordan (Bareiss) on [C_P | I]: every entry stays a
    minor of it, so each division by the previous pivot is exact, and the
    last pivot p leaves [p I | p C_P^-1].  Dividing by the gcd of p and the
    right block gives the least D, the common denominator of C_P^-1; the
    solutions do not depend on it.  A singular block means the vectors are
    not in general position.
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
    step = math.gcd(prev, *(x for row in rows for x in row[d:]))
    if prev < 0:
        step = -step
    return [[x // step for x in row[d:]] for row in rows], prev // step


def _pivot_solutions(vectors, n: int, g: tuple[int, ...]):
    """Grid tuples with sum_e i_e c_e = g, in lexicographic order.

    The last d = len(g) edges are pivots and the first lam are free.  A free
    assignment fixes the pivot indices i_P = (A g - sum_free i_e A c_e) / D,
    kept when the division is exact and each lies in [0, n-1].  Only the
    first lam - 1 free indices are looped over.  The last one, i, moves each
    pivot residual linearly, r_t - i s_t, so the admissible i form one
    arithmetic progression: its interval comes from 0 <= r_t - i s_t <=
    D (n-1) for every t, its period D / gcd(D, s_1..s_d) from the
    divisibility condition, and its start from a scan of at most one
    period.  The pivot indices are progressions in i as well, so each block
    of solutions is zipped from ranges without a loop per point: n^(lam-1)
    blocks of lam * d products each, whatever l is, and at most n^lam
    solutions.
    """
    l, d = len(vectors), len(g)
    if any(len(v) != d for v in vectors):
        raise DimMismatchError(f"edge vectors must all have dimension {d}")
    if l < d:
        raise DimMismatchError(f"{l} edge vectors cannot fix {d} coordinates")
    lam = l - d
    adj, den = _pivot_inverse(vectors[lam:])
    target = [_iinner(row, g) for row in adj]
    top = den * (n - 1)
    if lam == 0:
        if all(r % den == 0 and 0 <= r <= top for r in target):
            yield tuple(r // den for r in target)
        return
    # cols[t][e] = (A c_e)_t over the looped free edges; last[t] = s_t
    cols = [[_iinner(row, vectors[e]) for e in range(lam - 1)] for row in adj]
    last = [_iinner(row, vectors[lam - 1]) for row in adj]
    period = den // math.gcd(den, *last)
    # each step of the progression in i moves pivot t by this much
    pivot_steps = [-s * period // den for s in last]
    for prefix in product(range(n), repeat=lam - 1):
        res = [r - sum(map(mul, prefix, col)) for r, col in zip(target, cols)]
        lo, hi = 0, n - 1
        for r, s in zip(res, last):
            if s > 0:
                lo, hi = max(lo, -((top - r) // s)), min(hi, r // s)
            elif s < 0:
                lo, hi = max(lo, -(-r // s)), min(hi, (r - top) // s)
            elif not 0 <= r <= top:
                hi = -1
        start = lo
        if den > 1:
            start = next(
                (
                    i
                    for i in range(lo, min(lo + period, hi + 1))
                    if not any((r - i * s) % den for r, s in zip(res, last))
                ),
                hi + 1,
            )
        if start > hi:
            continue
        count = (hi - start) // period + 1
        pivots = [
            range(p, p + count * step, step) if step else repeat(p, count)
            for p, step in zip(
                [(r - start * s) // den for r, s in zip(res, last)], pivot_steps
            )
        ]
        yield from map(
            prefix.__add__, zip(range(start, hi + 1, period), *pivots)
        )


def enumerate_solutions(
    rep: OrthRep, n: int, g: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All i in [0, n-1]^l with sum_e i_e c_e = g, lexicographically.

    Solved, not searched: the first lam indices range over [0, n-1]^lam and
    the last d follow from one exact integer solve, in blocks along the
    last free index, so the cost is n^(lam-1) blocks whatever l is.  Raises
    NotGeneralPositionError when the last d vectors are dependent.
    """
    if n < 2:
        raise BadLevelError(f"level n={n} < 2")
    _check_grid(rep.graph.n, n)
    return list(_pivot_solutions(rep.vectors, n, g))


@lru_cache(maxsize=256)
def _int_list_format(width: int, pad: str | None) -> str:
    """%-template writing ``width`` ints as a JSON list.

    With pad None the list is compact, as json.dumps writes it with
    separators (",", ":"); otherwise it has one entry a line, as
    json.dumps(indent=2) writes it at indentation ``pad``.
    """
    if width == 0:
        return "[]"
    if pad is None:
        return "[" + ",".join(["%d"] * width) + "]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(["%d"] * width) + "\n" + pad + "]"


def _int_rows_text(rows, pad: str | None, sep: str) -> str:
    """Int rows of one length as JSON lists joined by ``sep``: one template
    repeated per row, filled by a single % over the flattened entries."""
    template = sep.join([_int_list_format(len(rows[0]), pad)] * len(rows))
    return template % tuple(chain.from_iterable(rows))


def solution_hash(solutions) -> str:
    """sha256 of the compact JSON of the lex-sorted solution list.

    The solutions are int tuples, fed to the hasher in chunks so a
    hash-only list never sits in memory whole.  A chunk is written by one
    "[%d,...,%d]" template, repeated and filled by a single %: the bytes
    json.dumps gives a list of int lists with separators (",", ":").  A
    chunk whose solutions differ in length (a malformed certificate's list)
    takes a template each.
    """
    hasher = hashlib.sha256()
    hasher.update(b"[")
    it = iter(solutions)
    sep = ""
    while chunk := list(islice(it, _HASH_CHUNK)):
        if len(set(map(len, chunk))) == 1:
            body = _int_rows_text(chunk, None, ",")
        else:
            body = ",".join([_int_list_format(len(s), None) % tuple(s) for s in chunk])
        hasher.update(f"{sep}{body}".encode())
        sep = ","
    hasher.update(b"]")
    return hasher.hexdigest()


def c_prime(rep: OrthRep) -> int:
    """Max over coordinates of the absolute column sum of the c-vectors.

    Every grid value of sum_e i_e c_e lies in the box
    [-C'(n-1), C'(n-1)]^d, which is what turns the mode count into an
    explicit floor.
    """
    if rep.d == 0:
        return 0
    return max(
        sum(abs(v[t]) for v in rep.vectors) for t in range(rep.d)
    )


def counting_floor(rep: OrthRep, n: int) -> int:
    """Guaranteed lower bound on the mode count: grid size over box size."""
    box = (2 * c_prime(rep) * (n - 1) + 1) ** rep.d
    return -(-(n ** rep.graph.n) // box)


# -- certificates ------------------------------------------------------------

_ROW = frozenset((list, tuple))


def _json_text(value, pad: str) -> str:
    """What json.dumps(value, indent=2, sort_keys=True) writes at ``pad``.

    Dicts (with str keys) and lists are laid out here; other leaves go
    through json.dumps.  A list of ints, or of int lists of one length, is
    written by a %-template and one join instead of a call per entry.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            [f"{json.dumps(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if _INT.issuperset(map(type, value)):
        return _int_list_format(len(value), pad) % tuple(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if (
        _ROW.issuperset(map(type, value))
        and len(set(map(len, value))) == 1
        and _INT.issuperset(map(type, chain.from_iterable(value)))
    ):
        body = _int_rows_text(value, inner, sep)
    else:
        body = sep.join([_json_text(v, inner) for v in value])
    return "[\n" + inner + body + "\n" + pad + "]"


@dataclass(frozen=True)
class Certificate:
    hypergraph: Hypergraph
    lam: int
    d: int
    rep: OrthRep
    cprime: int
    n: int
    g: tuple[int, ...]
    m_count: int
    solutions: tuple[tuple[int, ...], ...] | None
    sol_hash: str
    assignment: QuadraticAssignment
    seed: int
    version: str = "1"

    @property
    def achieved_rate(self) -> float:
        return math.log2(self.m_count) / math.log2(self.n)

    @property
    def bound_rate(self) -> int:
        return self.lam

    def to_json_dict(self) -> dict:
        if self.solutions is not None:
            sols = [list(s) for s in self.solutions]
        else:
            sols = {"count": self.m_count, "hash": self.sol_hash}
        return {
            "hypergraph": self.hypergraph.to_json_dict(),
            "lambda": self.lam,
            "d": self.d,
            "c": [list(v) for v in self.rep.vectors],
            "C_prime": self.cprime,
            "n": self.n,
            "g": list(self.g),
            "M": self.m_count,
            "solutions": sols,
            "assignment": self.assignment.to_json_dict(),
            "achieved_rate": {
                "log2_M": math.log2(self.m_count),
                "log2_n": math.log2(self.n),
            },
            "bound_rate": self.lam,
            "seed": self.seed,
            "version": self.version,
        }

    def to_json_bytes(self) -> bytes:
        """The canonical bytes: json.dumps(indent=2, sort_keys=True) layout."""
        return (_json_text(self.to_json_dict(), "") + "\n").encode()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Certificate":
        h = Hypergraph.from_json_dict(obj["hypergraph"])
        d = _json_int(obj["d"], "d")
        rep = OrthRep(line_graph(h), d, _json_int_rows(obj["c"], "c"))
        raw_sols = obj["solutions"]
        m = _json_int(obj["M"], "M")
        if isinstance(raw_sols, dict):
            solutions = None
            sol_hash = str(raw_sols["hash"])
            m = _json_int(raw_sols["count"], "solution count")
        else:
            solutions = _json_int_rows(raw_sols, "solutions")
            sol_hash = solution_hash(solutions)
        return cls(
            hypergraph=h,
            lam=_json_int(obj["lambda"], "lambda"),
            d=d,
            rep=rep,
            cprime=_json_int(obj["C_prime"], "C_prime"),
            n=_json_int(obj["n"], "n"),
            g=_json_ints(obj["g"], "g"),
            m_count=m,
            solutions=solutions,
            sol_hash=sol_hash,
            assignment=QuadraticAssignment.from_json_dict(
                obj["assignment"], h.l
            ),
            seed=_json_int(obj["seed"], "seed"),
            version=str(obj.get("version", "1")),
        )


def build_certificate(
    h: Hypergraph,
    n: int,
    rep: OrthRep,
    g: tuple[int, ...],
    m: int,
    seed: int,
) -> Certificate:
    assignment = build_exponent_assignment(h, rep, g)
    if m > SOLUTION_LIST_CAP:
        # certificate stays bounded: keep the count and a digest only
        digest = solution_hash(_pivot_solutions(rep.vectors, n, g))
        stored = None
    else:
        listed = tuple(_pivot_solutions(rep.vectors, n, g))
        digest = solution_hash(listed)
        stored = listed
    return Certificate(
        hypergraph=h,
        lam=h.l - rep.d,
        d=rep.d,
        rep=rep,
        cprime=c_prime(rep),
        n=n,
        g=g,
        m_count=m,
        solutions=stored,
        sol_hash=digest,
        assignment=assignment,
        seed=seed,
        version="1",
    )


def synthesize_certificate(
    h: Hypergraph, n: int, seed: int = 0, candidates: int = CANDIDATE_COUNT
) -> Certificate:
    """Full pipeline: connectivity, representation, target, assignment.

    When the grid is small enough to re-count cheaply, several verified
    representations are scored by their mode count M and the best kept
    (first wins ties), all deterministic in the seed.
    """
    validate(h)
    if n < 2:
        raise BadLevelError(f"level n={n} < 2")
    for idx, e in enumerate(h.edges):
        if e.level != 2:
            raise LevelsUnsupportedError(
                f"edge {idx} has level {e.level}; protocol synthesis "
                "supports uniform level 2 only"
            )
    lam = edge_connectivity(h)
    d = h.l - lam
    lg = line_graph(h)
    _check_grid(h.l, n)
    if n**h.l <= DEEP_GRID_LIMIT and candidates > 1:
        # Small coordinates concentrate the value histogram, so try a
        # low-bound search first and keep whichever candidate counts best.
        reps: list = []
        try:
            reps += gpor_candidates(
                lg, d, seed=seed, count=candidates, bound=3, max_retries=16
            )
        except RetriesExhaustedError:
            pass
        for rep in gpor_candidates(lg, d, seed=seed, count=candidates):
            if rep not in reps:
                reps.append(rep)
        # Score by the mode count alone; only the winner's mode is located.
        best = None
        for rep in reps:
            packed = _packed_histogram(rep, n)
            m = max(packed[0].values())
            if best is None or m > best[0]:
                best = m, rep, packed
            del packed  # a losing histogram goes before the next is built
        m, rep, packed = best
        g = _lex_smallest_mode(packed, m, rep.d)
    else:
        rep = find_gpor(lg, d, seed=seed)
        g, m = choose_g(rep, n)
    return build_certificate(h, n, rep, g, m, seed)


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{c.name:<26} {c.status}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def verify_certificate(cert: Certificate, deep: bool = False) -> CertificateReport:
    """Replay every claim a certificate makes, exactly.

    The true solution set is re-derived from (c, n, g); the listed
    solutions are evidence to be checked against it, never trusted.  All
    findings land in the report; nothing raises.

    Completeness is a symbolic identity: the per-vertex forms mention only
    local edges and sum, coefficient for coefficient, to ||c.i - g||^2, so
    they agree with it at every grid point without a sweep.  exponent_sign
    then follows too (the total is a square, zero exactly on the recounted
    solutions), so it sweeps the grid only when that identity fails.  The
    deep check is the independent simulation: it runs the degeneration on
    the full tensor and is gated on a 10^6 grid.
    """
    h = cert.hypergraph
    l = h.l
    grid_small = cert.n**l <= DEEP_GRID_LIMIT
    checks: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            status, detail = fn()
        except Exception as exc:  # malformed fields must not kill the report
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        checks.append(CheckResult(name, status, detail))

    # The recount runs outside run(), so a c that cannot be solved (wrong
    # shape, dependent pivot block) is caught here and failed by counting.
    true_sols: tuple[tuple[int, ...], ...] | None = None
    recount_error = None
    if grid_small:
        try:
            if len(cert.rep.vectors) != l:
                raise DimMismatchError(
                    f"c has {len(cert.rep.vectors)} vectors, hypergraph has "
                    f"{l} edges"
                )
            true_sols = tuple(
                _pivot_solutions(cert.rep.vectors, cert.n, cert.g)
            )
        except GhzcertError as exc:
            recount_error = f"cannot recount M: {exc.code}: {exc}"

    # 1: the vectors have d coordinates and form a general-position
    # orthogonal representation
    def check_rep():
        r = verify_orthrep(cert.rep)
        if r.ok:
            return "pass", ""
        if r.vector_count is not None:
            return "fail", f"c has {r.vector_count} vectors, hypergraph has {l} edges"
        if r.wrong_width:
            widths = sorted({len(cert.rep.vectors[e]) for e in r.wrong_width})
            return "fail", (
                f"c vectors must have d = {cert.rep.d} coordinates; edges "
                f"{list(r.wrong_width)} have {', '.join(map(str, widths))}"
            )
        return "fail", (
            f"violations={r.orthogonality_violations} "
            f"dependent={r.dependent_subsets} zero={r.zero_vectors}"
        )

    run("orthogonal_representation", check_rep)

    # 2: away-from-vertex independence, the decoding condition
    def check_decodability():
        bad = []
        for j in range(1, h.k + 1):
            away = [
                cert.rep.vectors[e]
                for e in range(l)
                if j not in h.edges[e].vertices
            ]
            if away and rank(away) < len(away):
                bad.append(j)
        if bad:
            return "fail", f"dependent away-sets at vertices {bad}"
        return "pass", ""

    run("decodability", check_decodability)

    # 3: the local forms sum to ||c.i - g||^2, and mention only local edges.
    # Both are exact coefficient comparisons; when they hold, the summed
    # form and the square are one polynomial.
    identity = False

    def check_completeness():
        nonlocal identity
        detail = []
        nonlocal_vertices = [
            j
            for j in range(1, h.k + 1)
            if not cert.assignment.mentioned_edges(j) <= set(h.incident(j))
        ]
        if nonlocal_vertices:
            detail.append(f"nonlocal terms at vertices {nonlocal_vertices}")
        quad, lin, const = cert.assignment.aggregate()
        want_quad = {}
        for e in range(l):
            v = _iinner(cert.rep.vectors[e], cert.rep.vectors[e])
            if v:
                want_quad[(e, e)] = v
        for e in range(l):
            for f in range(e + 1, l):
                v = 2 * _iinner(cert.rep.vectors[e], cert.rep.vectors[f])
                if v:
                    want_quad[(e, f)] = v
        want_lin = {}
        for e in range(l):
            v = -2 * _iinner(cert.rep.vectors[e], cert.g)
            if v:
                want_lin[e] = v
        if quad != want_quad or lin != want_lin or const != _iinner(cert.g, cert.g):
            detail.append("aggregate coefficients differ from the square expansion")
        if not detail and any(len(v) != len(cert.g) for v in cert.rep.vectors):
            detail.append(
                f"c vectors are not all of dimension len(g) = {len(cert.g)}"
            )
        if detail:
            return "fail", "; ".join(detail)
        identity = True
        return "pass", "" if grid_small else "symbolic only; grid too large"

    run("completeness", check_completeness)

    # 4: totals are nonnegative, zero exactly on solutions.  Given the
    # completeness identity the total is ||c.i - g||^2, which is zero exactly
    # on the recounted set, so the sweep runs only when the identity fails.
    def check_sign():
        detail = []
        if cert.solutions is not None:
            for i in cert.solutions:
                v = tuple(
                    sum(cert.rep.vectors[e][t] * i[e] for e in range(l))
                    for t in range(len(cert.g))
                )
                if v != cert.g:
                    detail.append(f"listed solution {i} has c.i = {v} != g")
                    break
        if true_sols is None:
            if not detail:
                if cert.solutions is None:
                    return "skipped", recount_error or "grid too large to sweep"
                why = recount_error or "grid too large"
                return "pass", f"listed solutions only; {why}"
        elif not identity:
            sol_set = set(true_sols)
            for i in product(range(cert.n), repeat=l):
                total = cert.assignment.total_exponent(i)
                if total < 0:
                    detail.append(f"negative total exponent at {i}")
                    break
                if (total == 0) != (i in sol_set):
                    detail.append(f"zero-set mismatch at {i}")
                    break
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("exponent_sign", check_sign)

    # 5: solutions are recoverable from any one vertex's labels
    def check_injectivity():
        if recount_error is not None:
            return "skipped", recount_error
        sols = true_sols if true_sols is not None else cert.solutions
        if sols is None:
            return "skipped", "solution list unavailable"
        bad = []
        for j in range(1, h.k + 1):
            inc = h.incident(j)
            labels = {tuple(i[e] for e in inc) for i in sols}
            if len(labels) != len(sols):
                bad.append(j)
        if bad:
            return "fail", f"label collisions at vertices {bad}"
        return "pass", ""

    run("injectivity", check_injectivity)

    # 6: the counted quantities are what the certificate says
    def check_counting():
        detail = []
        lam_re = edge_connectivity(h)
        if lam_re != cert.lam:
            detail.append(f"lambda {cert.lam} != recomputed {lam_re}")
        if cert.d != l - cert.lam:
            detail.append(f"d {cert.d} != |E| - lambda = {l - cert.lam}")
        if len(cert.g) != cert.d:
            detail.append(f"g has {len(cert.g)} entries, d = {cert.d}")
        if cert.cprime != c_prime(cert.rep):
            detail.append(f"C' {cert.cprime} != recomputed {c_prime(cert.rep)}")
        # the converse: the min-cut flattening has rank n^lambda, and a
        # degeneration cannot raise rank
        if cert.m_count > cert.n**lam_re:
            detail.append(f"M {cert.m_count} above n^lambda = {cert.n**lam_re}")
        if recount_error is not None:
            detail.append(recount_error)
        if true_sols is not None:
            if len(true_sols) != cert.m_count:
                detail.append(
                    f"M {cert.m_count} != recounted {len(true_sols)}"
                )
            if solution_hash(true_sols) != cert.sol_hash:
                detail.append("solution hash mismatch")
            if cert.solutions is not None and cert.solutions != true_sols:
                detail.append("listed solutions differ from the true set")
        elif cert.solutions is not None:
            if len(cert.solutions) != cert.m_count:
                detail.append(
                    f"M {cert.m_count} != listed count {len(cert.solutions)}"
                )
            if solution_hash(cert.solutions) != cert.sol_hash:
                detail.append("solution hash mismatch")
        if cert.m_count < counting_floor(cert.rep, cert.n):
            detail.append(
                f"M {cert.m_count} below floor {counting_floor(cert.rep, cert.n)}"
            )
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("counting", check_counting)

    # 7: run the degeneration for real
    def check_degeneration():
        if not deep:
            return "skipped", "deep=False"
        if not grid_small:
            return "skipped", "grid too large for deep check"
        if true_sols is None:
            return "skipped", "no recounted solutions to compare against"
        detail = []
        t = ghz_state(h, cert.n)
        for j in range(1, h.k + 1):
            t = apply_local_diagonal(t, j, cert.assignment.site_function(h, j))
        lt = leading_term(t)
        r = check_ghz_structure(lt)
        if r != cert.m_count:
            detail.append(f"leading term has {r} entries, M = {cert.m_count}")
        incident = [h.incident(j) for j in range(1, h.k + 1)]
        expected = {
            tuple(tuple(i[e] for e in inc) for inc in incident)
            for i in true_sols
        }
        if set(lt.entries) != expected:
            detail.append("leading entries differ from the solution set")
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("degeneration", check_degeneration)

    return CertificateReport(tuple(checks))


# -- rates -------------------------------------------------------------------


@dataclass(frozen=True)
class RateBound:
    lam: int
    cut_rank: int
    uniform: bool

    @property
    def ghz2_per_copy(self) -> float:
        return float(self.lam) if self.uniform else math.log2(self.cut_rank)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "min_cut_rank": self.cut_rank,
            "uniform_level_2": self.uniform,
            "ghz2_per_copy": self.ghz2_per_copy,
        }


def ghz_rate_bound(h: Hypergraph) -> RateBound:
    """Optimal asymptotic GHZ yield per copy of the edge-product state.

    Uniform level 2: exactly lam(H) two-level GHZ states per copy (the
    inverse of the transformation rate).  Mixed levels: log2 of the
    weighted minimum cut rank.
    """
    _require_cut_preconditions(h)
    lam = edge_connectivity(h)
    r = min_cut_rank(h)
    uniform = all(e.level == 2 for e in h.edges)
    return RateBound(lam, r, uniform)


@dataclass(frozen=True)
class EprRate:
    a: int
    b: int
    t: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def rate(self) -> Fraction:
        return Fraction(1, self.t)

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "t": self.t,
            "rate": f"1/{self.t}",
            "paths": [list(p) for p in self.paths],
        }


def epr_rate(h: Hypergraph, a: int, b: int) -> EprRate:
    """EPR pairs distillable between a and b per copy: one per 1/t copies.

    t is the minimum a-b cut.  By Menger's theorem it is also the number
    of edge-disjoint a-b paths, which come from one max-flow and are
    returned as witnesses.
    """
    validate(h)
    for idx, e in enumerate(h.edges):
        if e.level != 2:
            raise LevelsUnsupportedError(
                f"edge {idx} has level {e.level}; EPR rates assume level 2"
            )
    paths = edge_disjoint_paths(h, a, b)
    return EprRate(a, b, len(paths), tuple(tuple(p) for p in paths))
