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
g convolves edge by edge over the box of values that c and n allow, each
value a slot whose order is lexicographic.  Flipping i_e to n-1-i_e makes
every step nonnegative, and the histogram is symmetric about the middle
slot, so only the lower half is kept.  A half box of fewer than n^l
slots is one int with a fixed-width slot per value, each edge a few
shift-adds; a larger one is a dict, whose last edge's stage is never
built, only evaluated where its lex-smallest maximum can sit.  A
candidate representation that cannot beat the best so far stops early.
Before a dict histogram that would cost more, M is bounded by the number
N of kernel vectors of c in [-(n-1), n-1]^l, counted by the pivot solve
below: a candidate with N no larger than the best so far is skipped, and
N = 1 settles M = 1 with no histogram.

The solutions are solved for, not searched: general position makes the
last d vectors a basis, so each of the n^lam assignments to the first lam
edges fixes the last d indices through one integer solve, and M <= n^lam
holds by construction; the solve is read off one fraction-free
Gauss-Jordan of [C_P | C_free | g], the one the general-position kernel
uses.  Along the last free index the solve is linear, so the solutions
come in n^(lam-1) blocks: a range of that index, with each pivot index an
arithmetic progression over it, stated by its value at the range's start
and a step that is the same for every block.  Counting adds up the
lengths of the ranges and builds no row; rows are zipped from the
progressions only where they are read.  A block depends on its prefix
only through one residual, so a residual that repeats is solved once,
through a memo of at most a fixed number of residuals, each held as O(d)
ints.

The verifier recounts every certificate by adding up the range lengths of
the pivot blocks, bounded by its work n^lam against GHZCERT_MAX_GRID, and
derives the exponent sign and per-vertex injectivity from the checks that
imply them; no check sweeps the grid, and a claim that is not recomputed
fails.  Synthesis takes M from the histogram instead, so the recount does
not repeat the computation it checks.

A certificate carries its solutions as their count M only.  The solution
set is a function of c, n and g, which the certificate states and the
verifier solves again, so a list or a hash of it would bind nothing more.
The hash that a version-1 file may carry beside the count is ignored, and
a version-1 file that lists the solutions is read for their number.  The
file is the output of json.dumps(indent=2, sort_keys=True), written by a
short emitter of its own, since with an indent json has no C encoder.
"""

from __future__ import annotations

import json
import math
import os
from itertools import count, product, repeat
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import NamedTuple

from .errors import (
    BadGridLimitError,
    DimMismatchError,
    GridTooLargeError,
    LevelsUnsupportedError,
    NotGeneralPositionError,
    NotOrthRepError,
    TooLargeError,
)
from .gpor import (
    OrthRep,
    gpor_candidates,
    verify_orthrep,
)
from .hypergraph import (
    Hypergraph,
    edge_connectivity,
    edge_disjoint_paths,
    line_graph,
    min_cuts,
    _json_int,
    _json_int_rows,
    _json_ints,
    _repeated,
    _require_level,
)
from .ratlinalg import _reduce, rank
from .tensor import (
    apply_local_diagonal,
    check_ghz_structure,
    ghz_state,
    leading_term,
)

DEFAULT_GRID_LIMIT = 10**8
# the largest grid n^l that the deep check (verify --deep) sweeps; nothing
# else reads it
DEEP_GRID_LIMIT = 10**6
# distinct pivot residuals whose solved blocks _pivot_blocks keeps at a time
_MEMO_ENTRIES = 4096
# dict histogram updates that one pivot block of the kernel bound costs
# (see _bound_first).  Timed in process (Python 3.11, 2 CPUs) over the 442
# dict-route scorings of the benchmark's certify and verify plans at seeds
# 1-3 and of C6 at n = 3..7, K4^2 at n = 4..7 and K5^2 at n = 3, seeds
# 0-2: a block costs 10 to 60 us, an update 0.03 to 0.5 us once a
# histogram has thousands, and of the constants 8 to 4096, 256 saved the
# most (233 ms of histograms became 110 ms over the 69 scorings it
# admits; on the rest the bound and the histogram cost about the same).
_BLOCK_COST = 256


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


def _power_over(n: int, l: int, bound: int) -> bool:
    """Whether n^l > bound, for n >= 1, without building a power far past
    the bound."""
    power = 1
    for _ in range(l):
        if power > bound:
            break
        power *= n
    return power > bound


def _check_grid(l: int, n: int) -> None:
    limit = _grid_limit()
    if _power_over(n, l, limit):
        raise GridTooLargeError(n, l, limit)


def _iinner(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


# -- exponent assignment -----------------------------------------------------


def _json_terms(pairs, field: str) -> dict:
    """dict(pairs), refusing a key stated twice, of which dict keeps the last."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError(f"{field} repeat {_repeated(key for key, _ in pairs)}")
    return out


def _json_quad_terms(rows) -> dict[tuple[int, int], int]:
    """The terms q i_e i_f of one vertex, each monomial once, keyed e <= f."""
    pairs = [((e, f), q) for e, f, q in _json_int_rows(rows, "quad terms")]
    backwards = next((key for key, _ in pairs if key[0] > key[1]), None)
    if backwards is not None:
        raise ValueError(f"quad term {backwards} has e > f")
    return _json_terms(pairs, "quad terms")


class QuadraticAssignment(NamedTuple):
    """Integer quadratic forms, one per vertex, in the edge indices.

    Vertex j (1-based; slot j - 1 here) contributes
        sum q[e,f] i_e i_f + sum lam[e] i_e + const
    and may only mention edges incident to j.  Summed over vertices the
    contributions reproduce ||sum_e c_e i_e - g||^2 exactly.
    """

    k: int
    quad: tuple[dict[tuple[int, int], int], ...]
    lin: tuple[dict[int, int], ...]
    const: tuple[int, ...]

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
    def from_json_dict(cls, obj: dict) -> "QuadraticAssignment":
        rows = obj["vertices"]
        quad = tuple(_json_quad_terms(row["quad"]) for row in rows)
        lin = tuple(
            _json_terms(_json_int_rows(row["lin"], "lin terms"), "lin terms")
            for row in rows
        )
        const = _json_ints([row["const"] for row in rows], "const")
        return cls(len(rows), quad, lin, const)


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
    return QuadraticAssignment(h.k, tuple(quad), tuple(lin), tuple(const))


# -- solution counting -------------------------------------------------------


def _packing(rep: OrthRep, n: int):
    """(widths, lo, start, steps) of the slot packing, once the grid and
    widths are checked.

    Coordinate t of every partial sum over the edges lies in
    [lo_t, lo_t + w_t), with lo_t = (n-1) sum_e min(c_e,t, 0) and
    w_t = (n-1) sum_e |c_e,t| + 1.  The vector v sits in slot
    idx(v) = sum_t (v_t - lo_t) R_t, R_t = w_(t+1) ... w_(d-1): mixed radix,
    so slots are distinct and their order is lexicographic.  Adding c moves
    the slot by pack(c) = sum_t c_t R_t, whose sign is that of c's first
    nonzero coordinate.  Sending i_e to n-1-i_e for each edge with
    pack(c_e) < 0 makes every step |pack(c_e)| >= 0 and moves the start
    slot from idx(0) by (n-1) pack(c_e).
    """
    _check_grid(rep.graph.n, n)
    if any(len(v) != rep.d for v in rep.vectors):
        raise DimMismatchError(f"edge vectors must all have dimension {rep.d}")
    columns = list(zip(*rep.vectors)) or [()] * rep.d
    widths = [(n - 1) * sum(map(abs, col)) + 1 for col in columns]
    lo = [(n - 1) * sum(x for x in col if x < 0) for col in columns]
    packed = [_pack(v, widths) for v in rep.vectors]
    start = _pack([-x for x in lo], widths) + (n - 1) * sum(
        p for p in packed if p < 0
    )
    return widths, lo, start, [abs(p) for p in packed]


def _pack(v, widths) -> int:
    key = 0
    for x, w in zip(v, widths):
        key = key * w + x
    return key


def _unpack(key: int, widths, lo) -> tuple[int, ...]:
    digits = []
    for w, low in zip(reversed(widths), reversed(lo)):
        key, r = divmod(key, w)
        digits.append(r + low)
    return tuple(reversed(digits))


def _stages(start: int, steps, n: int, half: int, hopeless):
    """The histogram of start + sum_e i_e step_e, keyed by slot, without the
    slots above ``half``: each edge shifts the previous stage by i step_e
    for i in [0, n-1].  None as soon as ``hopeless`` holds for a stage, the
    first being {start: 1}."""
    hist = {start: 1}
    if hopeless(hist):
        return None
    for step in steps:
        shifts = [i * step for i in range(1, n)]
        nxt = dict(hist)  # the shift by 0
        get = nxt.get
        for key, cnt in hist.items():
            for s in shifts:
                s += key
                if s > half:
                    break
                nxt[s] = get(s, 0) + cnt
        hist = nxt
        if hopeless(hist):
            return None
    return hist


def _last_stage_mode(hist: dict[int, int], step: int, n: int) -> tuple[int, int]:
    """Largest F(k) = sum_{i<n} H(k - i step) over the keys of H and the
    smallest key with it, without building F.

    With step t > 0, the smallest maximizer of F is a key of H: off H,
    F(k - t) = F(k) + H(k - n t) >= F(k).  F at the keys is a window of n
    along each residue chain mod t, kept by one pass over the keys in chain
    order.  A zero step makes F = n H.
    """
    if step == 0:
        best = max(hist.values())
        return n * best, min(key for key, cnt in hist.items() if cnt == best)
    span = n * step
    order = sorted(sorted(hist), key=step.__rmod__)  # chains, each ascending
    best = best_key = window = tail = 0
    chain = None
    for j, key in enumerate(order):
        if key % step != chain:
            chain, window, tail = key % step, 0, j
        window += hist[key]
        while order[tail] <= key - span:
            window -= hist[order[tail]]
            tail += 1
        if window > best or (window == best and key < best_key):
            best, best_key = window, key
    return best, best_key


def _dense_stages(start: int, steps, n: int, half: int, width: int, hopeless):
    """The last stage of :func:`_stages` as (int, slots), or None as soon as
    ``hopeless`` holds for a stage: with top = slots - 1 the highest slot
    the stage can reach, at most ``half``, slot s sits in the ``width`` bits
    from (top - s) width up.  A step up in slot is a right shift, so what
    passes the top falls off the end.  An edge raises the top, then
    multiplies by 1 + Y + ... + Y^(n-1), Y = 2^-(step width), in about
    2 log2 n shift-adds: S_2m = S_m (1 + Y^m) and S_(m+1) = 1 + Y S_m.
    Counts below 2^width never carry into the next slot.  Nothing else
    holds a stage, so an edge keeps at most four stage-sized ints alive:
    the stage, the sum so far, one shifted term and the new sum."""
    hist, top = 1, start
    if hopeless((hist, top + 1)):
        return None
    for step in steps:
        rise = min(half - top, (n - 1) * step)
        hist <<= rise * width
        top += rise
        shift = step * width
        acc, m = hist, 1
        for bit in bin(n)[3:]:
            acc += acc >> m * shift
            m *= 2
            if bit == "1":
                acc = hist + (acc >> shift)
                m += 1
        hist = acc
        if hopeless((hist, top + 1)):
            return None
    return hist, top + 1


def _byte_max(col: bytes, most: int) -> int:
    """max(col), given that no byte exceeds ``most``, bisected with
    bytes.translate instead of a loop per byte."""
    lo, hi = 0, most + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rest = col.translate(None, bytes(range(mid)))
        if rest:
            lo, col = mid, rest
        else:
            hi = mid
    return lo


def _dense_mode(hist: int, slots: int, most: int) -> tuple[int, int]:
    """The largest count in a dense stage of ``slots`` slots whose counts
    are at most ``most``, and the first slot holding it.

    Slots are whole bytes, so byte k of every slot is one stride of the
    big-endian bytes, slot 0 first.  From the most significant byte down,
    the max is taken over the slots still holding the max's higher bytes
    (the others zeroed), and those slots are narrowed to the ones holding
    this byte.
    """
    size = -(-most.bit_length() // 8)
    data = hist.to_bytes(slots * size, "big")
    m, hits = 0, None  # hits: 0xFF at each slot still holding the max
    for k in range(size):
        col = data[k::size]
        if hits is not None:
            col = _and_bytes(col, hits)
        top = _byte_max(col, min(most >> 8 * (size - 1 - k), 255))
        m = m << 8 | top
        if top:  # else every slot still in the running holds a zero here
            col = col.translate(bytes(top) + b"\xff" + bytes(255 - top))
            hits = col if hits is None else _and_bytes(col, hits)
    return m, hits.find(255)


def _and_bytes(a: bytes, b: bytes) -> bytes:
    x = int.from_bytes(a, "big") & int.from_bytes(b, "big")
    return x.to_bytes(len(a), "big")


def _kernel_points(vectors, n: int) -> int:
    """N = |L ∩ [-(n-1), n-1]^l|, L = ker_Z(c), an upper bound on every
    value count: two grid points with one value differ by a vector of L in
    that box.  Shifted by n-1, those vectors are the grid points of side
    2n-1 with value (n-1) sum_e c_e, counted by _pivot_blocks in
    (2n-1)^(lam-1) blocks, raising as it does."""
    g0 = tuple((n - 1) * sum(col) for col in zip(*vectors))
    blocks = _pivot_blocks(vectors, 2 * n - 1, g0)
    return sum(len(free) for _, free, _, _ in blocks)


def _bound_first(n: int, l: int, lam: int) -> bool:
    """Whether counting N costs less than the dict histograms, taken as
    _BLOCK_COST dict updates per pivot block against the n^(l-1) (n-1)
    updates of a histogram whose stages fill up."""
    return _BLOCK_COST * (2 * n - 1) ** (lam - 1) < n ** (l - 1) * (n - 1)


def choose_g(
    rep: OrthRep, n: int, beat: int = 0
) -> tuple[tuple[int, ...], int] | None:
    """(g, M): the lex-smallest most frequent grid value g of sum_e i_e c_e
    and its count M, or None exactly when M <= beat (never with the default
    beat, as M >= 1).  A level n that is no int >= 2 raises BadLevelError.

    Values are counted in the slots of the box that :func:`_packing` lays
    out, whose order is lexicographic, so the winner is the first slot
    holding the largest count, and only it is unpacked.  No step is
    negative, so a slot only receives counts from slots at or below it.
    The final histogram is a palindrome, as i -> n-1-i sends the value v to
    K - v, K = (n-1) sum_e c_e, and idx(K - v) = slots - 1 - idx(v); so the
    lex-smallest mode lies at or below the middle slot (slots - 1) // 2, and
    the slots above it are never kept.

    The route depends on c and n alone.  When the lower half box, the
    slots 0 to (slots - 1) // 2 that are built, has fewer than n^l slots,
    each stage is one int with a whole number of bytes per slot, enough
    for n^(l - rank c): once the indices of the l - rank c edges outside a
    basis of c's span are fixed, each value has at most one grid point, so
    no count is larger.
    Each edge is a few shift-adds, shortest step first, so the int stays
    short until the last edges.  From n^l slots on each stage is a dict,
    every edge but the last is convolved, and the last edge's convolution
    is never built: the smallest maximizer of the final count is a key of
    the stage before it (see :func:`_last_stage_mode`).

    Before the dict route, where :func:`_bound_first` finds it cheaper
    than the histograms (a rule on n, l and lam = l - d alone), M is
    bounded by N, the kernel vectors of c in [-(n-1), n-1]^l (see
    :func:`_kernel_points`).  N <= beat gives None with no histogram, and
    N = 1 gives M = 1 at the lowest occupied slot, the start of the
    packing.  Where N is not counted (l <= d) or cannot be (a dependent
    pivot block), the histogram runs as it would without the bound, so
    the answer is the same on every route.

    After e of the l edges the final count is at most max(H_e) n^(l-e), so
    a candidate that cannot exceed ``beat`` (synthesis passes the best
    count so far) stops there; that max is taken only once beat >= n^(l-e).
    Histograms that run out of memory raise TooLargeError.
    """
    _require_level(n)
    widths, lo, start, steps = _packing(rep, n)
    l = len(steps)
    half = (math.prod(widths) - 1) // 2
    cap = n**l
    dense = half < cap
    lam = l - rep.d
    if not dense and lam > 0 and _bound_first(n, l, lam):
        try:
            bound = _kernel_points(rep.vectors, n)
        except NotGeneralPositionError:  # a dependent pivot block
            pass
        else:
            if bound <= beat:
                return None
            if bound == 1:
                # every value has one grid point; start is the lowest slot
                return _unpack(start, widths, lo), 1

    def hopeless(stage) -> bool:
        # the final count is at most peak(stage) * cap
        nonlocal cap
        if beat >= cap and peak(stage) * cap <= beat:
            return True
        cap //= n
        return False

    try:
        if dense:
            # under 256 grid points one byte holds any count, rank or not
            most = cap if cap < 256 else n ** (l - rank(rep.vectors))
            width = 8 * -(-most.bit_length() // 8)
            peak = lambda stage: _dense_mode(*stage, most)[0]
            last = _dense_stages(start, sorted(steps), n, half, width, hopeless)
        else:
            peak = lambda hist: max(hist.values())
            last = _stages(start, steps[:-1], n, half, hopeless)
        if last is None:
            return None
        if dense:
            m, key = _dense_mode(*last, most)
        else:
            m, key = _last_stage_mode(last, steps[-1], n)
    except MemoryError:
        raise TooLargeError(
            f"the value histograms of {l} edges at n={n} ran out of memory"
        ) from None
    return (_unpack(key, widths, lo), m) if m > beat else None


def _pivot_blocks(vectors, n: int, g: tuple[int, ...]):
    """Grid tuples with sum_e i_e c_e = g, in lexicographic blocks.

    The last d = len(g) edges are pivots and the first lam are free.  A free
    assignment fixes the pivot indices i_P = (A g - sum_free i_e A c_e) / D,
    A = D C_P^-1, kept when the division is exact and each lies in
    [0, n-1].  ratlinalg._reduce turns [C_P | C_free | g] into
    [p I | p C_P^-1 C_free | p C_P^-1 g], p the last pivot, so D = |p| and
    A c_e and A g are its columns, negated when p < 0; a pivot past column
    d - 1 means C_P is singular.  D need not be the least denominator:
    scaling r, s and D together changes no range, start or step below.

    Only the first lam - 1 free indices are looped over.  The last one, i,
    moves each pivot residual linearly, r_t - i s_t, so the admissible i
    form one arithmetic progression: its interval comes from
    0 <= r_t - i s_t <= D (n-1) for every t, its period
    D / gcd(D, s_1..s_d) from the divisibility condition, and its start
    from a scan of at most one period.  The pivot indices are progressions
    in i as well, so a block costs lam * d products and no loop per point,
    and there are n^(lam-1) blocks whatever l is, with at most n^lam
    solutions in all.

    Each nonempty block is yielded as (prefix, free, starts, steps): the
    first lam - 1 free indices, constant over the block; the range of the
    last free index; the d pivot indices at that range's start; and the
    step of each pivot index per step of the range, the same for every
    block.  Its solution count is len(free).  With lam = 0 there is at most
    one block, with an empty prefix, free = range(1) and no steps, and its
    one row is the pivot indices alone.

    A block depends on its prefix only through the residual r, so each
    distinct residual is solved once into a memo of (free, starts), cleared
    when it holds _MEMO_ENTRIES residuals.  Residuals repeat only when
    the looped columns A c_e are linearly dependent (all c_e = (1,) makes
    the residual a function of the prefix sum); an entry is O(d) ints
    whatever n is.
    """
    l, d = len(vectors), len(g)
    if any(len(v) != d for v in vectors):
        raise DimMismatchError(f"edge vectors must all have dimension {d}")
    if l < d:
        raise DimMismatchError(f"{l} edge vectors cannot fix {d} coordinates")
    lam = l - d
    m = [list(row) for row in zip(*vectors[lam:], *vectors[:lam], g)]
    pivots, den = _reduce(m)
    if pivots[:d] != list(range(d)):
        raise NotGeneralPositionError(
            f"the last {d} edge vectors are linearly dependent"
        )
    if den < 0:
        den, m = -den, [[-x for x in row] for row in m]
    target = [row[-1] for row in m]
    top = den * (n - 1)
    if lam == 0:
        if all(r % den == 0 and 0 <= r <= top for r in target):
            yield (), range(1), [r // den for r in target], ()
        return
    # cols[t][e] = (A c_e)_t over the looped free edges; last[t] = s_t
    cols = [row[d : l - 1] for row in m]
    last = [row[l - 1] for row in m]
    period = den // math.gcd(den, *last)
    # each step of the progression in i moves pivot t by this much
    steps = [-s * period // den for s in last]
    memo: dict[tuple[int, ...], tuple[range, list[int]]] = {}
    for prefix in product(range(n), repeat=lam - 1):
        res = tuple([r - sum(map(mul, prefix, col)) for r, col in zip(target, cols)])
        block = memo.get(res)
        if block is None:
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
            if len(memo) >= _MEMO_ENTRIES:
                memo.clear()
            block = memo[res] = (
                range(start, hi + 1, period),
                [(r - start * s) // den for r, s in zip(res, last)],
            )
        if block[0]:
            yield prefix, *block, steps


def _pivot_solutions(vectors, n: int, g: tuple[int, ...]):
    """Grid tuples with sum_e i_e c_e = g in lexicographic order: the rows
    of _pivot_blocks, raising as it does on the first step."""
    lam = len(vectors) - len(g)
    for prefix, free, starts, steps in _pivot_blocks(vectors, n, g):
        if lam:
            # free is the one finite column; a zero step counts in place
            yield from zip(*map(repeat, prefix), free, *map(count, starts, steps))
        else:
            yield tuple(starts)


def enumerate_solutions(
    rep: OrthRep, n: int, g: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All i in [0, n-1]^l with sum_e i_e c_e = g, lexicographically.

    Solved, not searched: the first lam indices range over [0, n-1]^lam and
    the last d follow from one exact integer solve, in blocks along the
    last free index, so the cost is n^(lam-1) blocks whatever l is.  Raises
    NotGeneralPositionError when the last d vectors are dependent.
    """
    _require_level(n)
    _check_grid(rep.graph.n, n)
    return list(_pivot_solutions(rep.vectors, n, g))


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


# -- certificates ------------------------------------------------------------


def _indented_json(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), written as if ``pad``
    already indents its first line.

    With an indent json.dumps never uses its C encoder, so the values a
    certificate holds are written here: dicts with str keys, lists (a list
    of ints in one join), ints, finite floats and strs, through the same
    reprs and string escaping as json.  Anything else, bools and None
    included, goes through json.dumps, its lines moved right by ``pad``.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        for x in obj:
            if type(x) is not int:
                items = [_indented_json(y, inner) for y in obj]
                break
        else:
            items = map(int.__repr__, obj)
        return "[\n" + inner + sep.join(items) + "\n" + pad + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _indented_json(v, inner)
            for k, v in sorted(obj.items())  # keys differ: no value compared
        ]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


class Certificate(NamedTuple):
    hypergraph: Hypergraph
    lam: int
    d: int
    rep: OrthRep
    cprime: int
    n: int
    g: tuple[int, ...]
    m_count: int
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
        return {
            "hypergraph": self.hypergraph.to_json_dict(),
            "lambda": self.lam,
            "d": self.d,
            "c": [list(v) for v in self.rep.vectors],
            "C_prime": self.cprime,
            "n": self.n,
            "g": list(self.g),
            "M": self.m_count,
            "solutions": {"count": self.m_count},
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
        """The canonical bytes: json.dumps(indent=2, sort_keys=True)."""
        return (_indented_json(self.to_json_dict(), "") + "\n").encode()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Certificate":
        h = Hypergraph.from_json_dict(obj["hypergraph"])
        d = _json_int(obj["d"], "d")
        rep = OrthRep(line_graph(h), d, _json_int_rows(obj["c"], "c"))
        raw_sols = obj["solutions"]
        m = _json_int(obj["M"], "M")
        # version 1 states the solutions by their count, beside which a hash
        # is ignored, or lists them; the verifier solves for them again
        if isinstance(raw_sols, dict):
            counted = _json_int(raw_sols["count"], "solution count")
        else:
            counted = len(_json_int_rows(raw_sols, "solutions"))
        if counted != m:
            raise ValueError(f"M {m} != solution count {counted}")
        lam = _json_int(obj["lambda"], "lambda")
        n = _json_int(obj["n"], "n")
        if n < 2:
            raise ValueError(f"level n={n} < 2")
        # the stated rate is derived data: it must be what M, n and lambda give
        rate = obj["achieved_rate"]
        for field, value in (("M", m), ("n", n)):
            if value < 1:
                raise ValueError(f"{field} {value} has no log2")
            stated = rate[f"log2_{field}"]
            if type(stated) is not float or stated != math.log2(value):
                raise ValueError(
                    f"achieved_rate.log2_{field} {stated!r} != "
                    f"log2({field}) = {math.log2(value)!r}"
                )
        if _json_int(obj["bound_rate"], "bound_rate") != lam:
            raise ValueError(f"bound_rate {obj['bound_rate']} != lambda {lam}")
        version = obj.get("version")
        if version != "1":
            raise ValueError(f'version must be the string "1", not {version!r}')
        return cls(
            hypergraph=h,
            lam=lam,
            d=d,
            rep=rep,
            cprime=_json_int(obj["C_prime"], "C_prime"),
            n=n,
            g=_json_ints(obj["g"], "g"),
            m_count=m,
            assignment=QuadraticAssignment.from_json_dict(obj["assignment"]),
            seed=_json_int(obj["seed"], "seed"),
            version=version,
        )


def build_certificate(
    h: Hypergraph,
    n: int,
    rep: OrthRep,
    g: tuple[int, ...],
    m: int,
    seed: int,
) -> Certificate:
    _require_level(n)
    return Certificate(
        hypergraph=h,
        lam=h.l - rep.d,
        d=rep.d,
        rep=rep,
        cprime=c_prime(rep),
        n=n,
        g=g,
        m_count=m,
        assignment=build_exponent_assignment(h, rep, g),
        seed=seed,
        version="1",
    )


def _up_to_order_and_sign(vectors) -> tuple:
    """One key for all vector lists equal up to order and the sign of each
    vector.  Their value histograms are translates of one another (i -> n-1-i
    flips c_e at the cost of a shift), so they have one mode count M."""
    return tuple(sorted(max(v, tuple(-x for x in v)) for v in vectors))


def synthesize_certificate(h: Hypergraph, n: int, seed: int = 0) -> Certificate:
    """Full pipeline: connectivity, representation, target, assignment.

    The representations, up to four at every grid size, come from one
    :func:`gpor_candidates` search, deterministic in the seed.  They are
    scored by their mode count M as the search yields them, and the best
    kept (the first wins ties).  Where :func:`choose_g` would fill dict
    histograms, a candidate whose kernel bound N is no larger than the best
    M so far is skipped unscored, and N = 1 settles a first candidate's
    M = 1 at once; the certificate is the one the histograms would have
    chosen.  The search stops once no later candidate could win, so the
    bytes are those of scoring all four: when M reaches n^lam, which no
    candidate exceeds (general position fixes a solution by its lam free
    indices), or when d = 1, where every vector is (+-1,), so every
    candidate is the first up to order and sign.
    """
    _require_level(n)
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
    # Score by the mode count; a candidate that cannot beat the best so far
    # (the first wins ties) stops convolving as soon as that shows, and one
    # equal to an earlier candidate up to order and sign has that
    # candidate's M, so it is not scored at all.
    m = 0
    scored = set()
    for cand in gpor_candidates(lg, d, seed=seed):
        shape = _up_to_order_and_sign(cand.vectors)
        if shape in scored:
            continue
        scored.add(shape)
        found = choose_g(cand, n, beat=m)
        if found is not None:
            (g, m), rep = found, cand
            if d == 1 or m == n**lam:
                break  # no later candidate can beat M
    return build_certificate(h, n, rep, g, m, seed)


# -- verification ------------------------------------------------------------


def _gaps(covered: list[int], k: int) -> str:
    """The vertices of 1..k missing from ascending ``covered``, as runs."""
    runs, nxt = [], 1
    for v in covered + [k + 1]:
        if v > nxt:
            runs.append(f"{nxt}..{v - 1}" if v - 1 > nxt else str(nxt))
        nxt = v + 1
    return ", ".join(runs)


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


class CertificateReport(NamedTuple):
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
        return "\n".join(
            f"{name:<26} {status}" + (f"  ({detail})" if detail else "")
            for name, status, detail in self.checks
        )


def verify_certificate(cert: Certificate, deep: bool = False) -> CertificateReport:
    """Replay every claim a certificate makes, exactly.

    The counting check recounts the true solution set from (c, n, g) by the
    pivot solve, whose work n^lam is bounded by GHZCERT_MAX_GRID; M is
    evidence checked against it, never trusted.  The recount adds up the
    lengths of the pivot blocks' ranges, so no solution is written out.  A
    claim that could not be recomputed fails; only the deep check may be
    skipped.  All findings land in the report; nothing raises but
    BadGridLimitError, for a malformed GHZCERT_MAX_GRID, read up front.

    Completeness is a symbolic identity: the per-vertex forms mention only
    local edges and sum, coefficient for coefficient, to ||c.i - g||^2.
    Two checks follow from the algebra instead of a sweep: exponent_sign
    holds exactly when that identity does (the total is then a square, zero
    exactly on the solutions), and injectivity exactly when decodability
    does (two solutions with the same labels at vertex j differ only on the
    edges away from j, whose vectors are independent).  The deep check is
    the independent simulation: it runs the degeneration on the full tensor
    and is gated on a 10^6 grid; a MemoryError there skips it, since it
    refutes nothing.
    """
    h = cert.hypergraph
    l = h.l
    checks: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            status, detail = fn()
        except Exception as exc:  # malformed fields must not kill the report
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        checks.append(CheckResult(name, status, detail))

    def derive(name: str, premise: str) -> None:
        held = next(c.status for c in checks if c.name == premise) == "pass"
        checks.append(
            CheckResult(name, "pass", "")
            if held
            else CheckResult(name, "fail", f"follows from {premise}, which failed")
        )

    # read before any check, whose errors run() would catch
    limit = _grid_limit()

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

    # 2: away-from-vertex independence, the decoding condition.  Vertices
    # with the same away-set share one rank, so the work grows with the
    # edges, not with k.
    def check_decodability():
        covered = sorted({v for e in h.edges for v in e.vertices})
        away_at = {
            j: tuple(e for e in range(l) if j not in h.edges[e].vertices)
            for j in covered
        }
        uncovered = h.k - len(covered)
        everything = tuple(range(l))  # the away-set of a vertex in no edge
        aways = dict.fromkeys(away_at.values())
        if uncovered:
            aways[everything] = None
        dependent = {
            away: rank([cert.rep.vectors[e] for e in away]) < len(away)
            for away in aways
            if away
        }
        bad = [j for j in covered if dependent.get(away_at[j])]
        detail = [f"dependent away-sets at vertices {bad}"] if bad else []
        if uncovered and dependent.get(everything):
            detail.append(
                f"dependent away-set at the {uncovered} vertices in no edge "
                f"({_gaps(covered, h.k)})"
            )
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("decodability", check_decodability)

    # 3: the local forms sum to ||c.i - g||^2, and mention only local edges.
    # Both are exact coefficient comparisons; when they hold, the summed
    # form and the square are one polynomial.  One pass over the shares
    # tests each for locality and adds its terms into the summed form.
    def check_completeness():
        qa = cert.assignment
        if qa.k != h.k:
            return "fail", f"{qa.k} vertex shares for {h.k} vertices"
        nonlocal_vertices, quad, lin, const = [], {}, {}, 0
        for j in range(h.k):
            named = {e for key in qa.quad[j] for e in key} | qa.lin[j].keys()
            if not named <= set(h.incident(j + 1)):
                nonlocal_vertices.append(j + 1)
            for key, q in qa.quad[j].items():
                quad[key] = quad.get(key, 0) + q
            for e, c in qa.lin[j].items():
                lin[e] = lin.get(e, 0) + c
            const += qa.const[j]
        detail = []
        if nonlocal_vertices:
            detail.append(f"nonlocal terms at vertices {nonlocal_vertices}")
        quad = {key: q for key, q in quad.items() if q}
        lin = {e: c for e, c in lin.items() if c}
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
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("completeness", check_completeness)
    # 4: totals are nonnegative, zero exactly on solutions
    derive("exponent_sign", "completeness")
    # 5: solutions are recoverable from any one vertex's labels
    derive("injectivity", "decodability")

    # 6: the counted quantities are what the certificate says
    def check_counting():
        detail = []
        # the rate is claimed against lambda, the bound for uniform level 2
        other_levels = [idx for idx, e in enumerate(h.edges) if e.level != 2]
        if other_levels:
            detail.append(f"edges {other_levels} are not of level 2")
        lam_re = edge_connectivity(h)
        if lam_re != cert.lam:
            detail.append(f"lambda {cert.lam} != recomputed {lam_re}")
        if cert.d != l - cert.lam:
            detail.append(f"d {cert.d} != |E| - lambda = {l - cert.lam}")
        if len(cert.g) != cert.d:
            detail.append(f"g has {len(cert.g)} entries, d = {cert.d}")
        cprime = c_prime(cert.rep)
        if cert.cprime != cprime:
            detail.append(f"C' {cert.cprime} != recomputed {cprime}")
        # the converse: the min-cut flattening has rank n^lambda, and a
        # degeneration cannot raise rank.  n^lambda is built only below M.
        if not _power_over(cert.n, lam_re, cert.m_count - 1):
            detail.append(f"M {cert.m_count} above n^lambda = {cert.n**lam_re}")
        # the recount: a c that cannot be solved (wrong shape, dependent
        # pivot block, too much work) fails this check
        try:
            if len(cert.rep.vectors) != l:
                raise DimMismatchError(
                    f"c has {len(cert.rep.vectors)} vectors, hypergraph has {l} edges"
                )
            _check_grid(max(l - len(cert.g), 0), cert.n)
            blocks = _pivot_blocks(cert.rep.vectors, cert.n, cert.g)
            recount = sum(len(free) for _, free, _, _ in blocks)
        except (DimMismatchError, GridTooLargeError, NotGeneralPositionError) as exc:
            detail.append(f"cannot recount M: {exc.code}: {exc}")
        else:
            if recount != cert.m_count:
                detail.append(f"M {cert.m_count} != recounted {recount}")
        # the floor: the n^l grid values fall in (2 C' (n-1) + 1)^d boxes,
        # so M >= ceil(n^l / box) exactly when n^l <= M box
        box = (2 * cprime * (cert.n - 1) + 1) ** cert.rep.d
        if _power_over(cert.n, l, cert.m_count * box):
            if _power_over(cert.n, l, limit):
                floor = f"ceil(n^{l} / (2*{cprime}*(n-1)+1)^{cert.rep.d})"
            else:
                floor = -(-(cert.n**l) // box)
            detail.append(f"M {cert.m_count} below floor {floor}")
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("counting", check_counting)

    # 7: run the degeneration for real
    def check_degeneration():
        if not deep:
            return "skipped", "deep=False"
        if _power_over(cert.n, l, DEEP_GRID_LIMIT):
            return "skipped", "grid too large for deep check"
        if cert.assignment.k != h.k:  # one share is applied at every site
            return "fail", f"{cert.assignment.k} vertex shares for {h.k} vertices"
        incident = [h.incident(j) for j in range(1, h.k + 1)]
        expected = {
            tuple(tuple(i[e] for e in inc) for inc in incident)
            for i in _pivot_solutions(cert.rep.vectors, cert.n, cert.g)
        }
        detail = []
        try:  # out of memory leaves the claim unchecked, not refuted
            t = ghz_state(h, cert.n)
            for j in range(1, h.k + 1):
                t = apply_local_diagonal(t, j, cert.assignment.site_function(h, j))
            lt = leading_term(t)
        except MemoryError:
            return "skipped", f"out of memory on the {cert.n}^{l} grid"
        r = check_ghz_structure(lt)
        if r != cert.m_count:
            detail.append(f"leading term has {r} entries, M = {cert.m_count}")
        if set(lt.entries) != expected:
            detail.append("leading entries differ from the solution set")
        return ("fail", "; ".join(detail)) if detail else ("pass", "")

    run("degeneration", check_degeneration)

    return CertificateReport(tuple(checks))


# -- rates -------------------------------------------------------------------


class RateBound(NamedTuple):
    lam: int
    cut_rank: int
    uniform: bool

    @property
    def ghz2_per_copy(self) -> float:
        return math.log2(self.cut_rank)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "min_cut_rank": self.cut_rank,
            "uniform_level_2": self.uniform,
            "ghz2_per_copy": self.ghz2_per_copy,
        }


def ghz_rate_bound(h: Hypergraph) -> RateBound:
    """Optimal asymptotic GHZ yield per copy of the edge-product state.

    That is log2 of the weighted minimum cut rank: for uniform level 2 the
    rank is 2^lam(H), so exactly lam(H) two-level GHZ states per copy (the
    inverse of the transformation rate).  ``min_cuts`` scans once when
    levels are equal.
    """
    cut, wcut = min_cuts(h)
    uniform = all(e.level == 2 for e in h.edges)
    return RateBound(len(cut.crossing), wcut.rank, uniform)


class EprRate(NamedTuple):
    a: int
    b: int
    t: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def rate(self) -> Fraction:
        from fractions import Fraction  # on use: no command reads the rate

        return Fraction(1, self.t)

    def to_json_dict(self) -> dict:
        paths = [list(p) for p in self.paths]
        return {**self._asdict(), "rate": f"1/{self.t}", "paths": paths}


def epr_rate(h: Hypergraph, a: int, b: int) -> EprRate:
    """EPR pairs distillable between a and b per copy: one per 1/t copies.

    t is the minimum a-b cut.  By Menger's theorem it is also the number
    of edge-disjoint a-b paths, which come from one max-flow and are
    returned as witnesses.
    """
    for idx, e in enumerate(h.edges):
        if e.level != 2:
            raise LevelsUnsupportedError(
                f"edge {idx} has level {e.level}; EPR rates assume level 2"
            )
    paths = edge_disjoint_paths(h, a, b)
    return EprRate(a, b, len(paths), tuple(tuple(p) for p in paths))
