"""Sparse multiparty tensors whose entries are unit monomials in ε.

A SparseTensor stands for a k-site tensor: a set of entries, each a key
(one label per site, each label itself a tuple of integers) with one int
exponent m, standing for the term 1·ε^m.  That is all the degeneration
uses: every entry of the product of GHZ states attached to a hypergraph has
coefficient 1, each local diagonal operator with monomial entries ε^m adds
an exponent, and the ε → 0 leading term keeps the entries at exponent 0.
The module carries only what the deep degeneration check replays: the GHZ
product state, local diagonal operators, the leading term and the test that
the result is a GHZ state.  Those operations are the only way to build a
tensor: ``ghz_state`` starts the chain from a Hypergraph, and each later
step derives its entries from the tensor it is given.

The tensor keeps its exponents in one int of fixed-width slots, one per
entry in entry order, slot 0 in the lowest bits.  A slot holds m - lo in
whole bytes, where lo and hi are the sums of the minima and maxima of the
tables applied so far, with one spare top bit.  The entries of the n^l grid
of ``ghz_state`` are its points in lexicographic order, and a point's label
at a site is derived from the point's index, so the grid stores no code per
entry.  Applying a diagonal at a site spreads the site's table over the
grid with bytes operations (a block repeated n times for each edge the site
does not see, n blocks joined for each edge it sees) and adds one int.  The
leading term finds the negative and the zero slots with one add and one AND
against the slots' top bits each, and derives the label codes of the
entries it keeps, one column per site.  Otherwise labels are derived only
for the entries a reader lists and for the one entry an error names.

Everything is exact: exponents are ints and coefficients are 1, so "leading
term" is a symbolic statement, never a numerical limit.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress, count, groupby, product, repeat

from .errors import GhzStructureError, NegativeExponentError, NonScalarCoefficientsError
from .hypergraph import Hypergraph, _repeated, _require_level

Label = tuple[int, ...]
EntryKey = tuple[Label, ...]


class SparseTensor:
    """k-site tensor over declared per-site label alphabets.

    Built only by ``ghz_state``, ``apply_local_diagonal`` and
    ``leading_term``, whose slots are valid by construction.  ``entries``
    maps each key to the exponent m of its term 1·ε^m, in entry order,
    built on first use.
    """

    __slots__ = (
        "k", "alphabets", "_grid", "_cols", "_size", "_exps", "_lo", "_hi", "_entries"
    )

    @property
    def entries(self) -> dict[EntryKey, int]:
        if self._entries is None:
            cols = _codes(self, range(self._size))
            labels = [map(a.__getitem__, col) for a, col in zip(self.alphabets, cols)]
            keys = zip(*labels) if labels else repeat((), self._size)
            self._entries = dict(zip(keys, _unpack(self)))
        return self._entries

    def _key(self, i: int) -> EntryKey:
        return tuple(a[col[0]] for a, col in zip(self.alphabets, _codes(self, [i])))


def _trusted(k: int, alphabets, grid, cols, size: int, exps: int, lo: int, hi: int):
    """The tensor with these entries and slots.

    ``grid`` is (n, l, incident) for the n^l grid of ``ghz_state``, whose
    site codes are derived from a point's index; otherwise ``cols`` holds
    one code column per site.
    """
    t = object.__new__(SparseTensor)
    t.k, t.alphabets, t._grid, t._cols, t._size = k, alphabets, grid, cols, size
    t._exps, t._lo, t._hi, t._entries = exps, lo, hi, None
    return t


def _width(lo: int, hi: int) -> int:
    """Bytes per slot for values lo..hi stored as m - lo, with a spare top bit."""
    return ((hi - lo).bit_length() + 8) // 8


def _codes(t: SparseTensor, rows) -> list[list[int]]:
    """One column per site: the codes (indices into the site's alphabet)
    of the entries numbered ``rows``.

    A grid point's label at a site is its digits at the site's edges, in
    ascending edge order; in the sorted alphabet its index is the base-n
    number of those digits.
    """
    if t._grid is None:
        if rows == range(t._size):  # every entry: the columns, never mutated
            return t._cols
        return [list(map(col.__getitem__, rows)) for col in t._cols]
    n, l, incident = t._grid
    digits = [[i // n ** (l - 1 - e) % n for i in rows] for e in range(l)]
    out = []
    for inc in incident:
        col = digits[inc[0]] if inc else [0] * len(rows)
        for e in inc[1:]:
            col = [c * n + d for c, d in zip(col, digits[e])]
        out.append(col)
    return out


def _unpack(t: SparseTensor) -> list[int]:
    """Every entry's exponent, in entry order."""
    if t._lo == t._hi:
        return [t._lo] * t._size
    width = _width(t._lo, t._hi)
    data = t._exps.to_bytes(t._size * width, "little")
    slots = (data[i : i + width] for i in range(0, len(data), width))
    return [int.from_bytes(slot, "little") + t._lo for slot in slots]


def _repeat(value: int, width: int, size: int) -> int:
    """size slots of width bytes, each holding value."""
    return int.from_bytes(value.to_bytes(width, "little") * size, "little")


def _flagged(flags: int, width: int, size: int):
    """Numbers of the slots whose top bit is set in flags, which has no
    other bit set, in ascending order."""
    data = flags.to_bytes(size * width, "little")
    i = data.find(0x80)
    while i >= 0:
        yield i // width
        i = data.find(0x80, i + 1)


def _require_scalar(t: SparseTensor) -> None:
    if t._lo or t._hi:
        exps = _unpack(t)
        i = next(compress(count(), exps), None)
        if i is not None:
            raise NonScalarCoefficientsError(
                f"entry {t._key(i)} has ε-dependent coefficient 1*e^{exps[i]}"
            )


def ghz_state(h: Hypergraph, n: int) -> SparseTensor:
    """Product of n-level GHZ states, one per hyperedge of h.

    Site j - 1 belongs to vertex j; its label lists the indices of the
    incident edges' terms, in ascending edge order.  One unit entry
    (exponent 0) per point of [0, n-1]^l, in lexicographic order.
    """
    _require_level(n)
    incident = tuple(h.incident(j) for j in range(1, h.k + 1))
    alphabets = tuple(tuple(product(range(n), repeat=len(inc))) for inc in incident)
    return _trusted(h.k, alphabets, (n, h.l, incident), None, n**h.l, 0, 0, 0)


def _spread(table: bytes, inc: tuple[int, ...], n: int, l: int, width: int) -> bytes:
    """One site's table, slots of width bytes in code order, laid over the
    grid [0, n-1]^l in lex order.

    Built from the last coordinate up.  The data is a row of blocks, at
    first one slot each: r coordinates the site sees make each r
    consecutive blocks one (the last digits of the code), and r it does not
    see repeat every block r times.
    """
    data, block = table, width
    for seen, run in groupby(reversed(range(l)), inc.__contains__):
        r = n ** len(list(run))
        if not seen:
            data = b"".join([data[i : i + block] * r for i in range(0, len(data), block)])
        block *= r
    return data


def _widen(exps: int, size: int, old: int, new: int) -> int:
    """The slots of old bytes each moved into a slot of new bytes."""
    if old == new or not exps:
        return exps
    data = exps.to_bytes(size * old, "little")
    wide = bytearray(size * new)
    for b in range(old):
        wide[b::new] = data[b::old]
    return int.from_bytes(wide, "little")


def apply_local_diagonal(
    t: SparseTensor, vertex: int, exp_fn: Callable[[Label], int]
) -> SparseTensor:
    """Act at one site with the diagonal operator label -> ε^{exp_fn(label)}.

    ``exp_fn`` is called once per label of the site's alphabet.
    """
    j = vertex - 1
    table = [int(exp_fn(label)) for label in t.alphabets[j]]
    low, high = min(table), max(table)
    lo, hi = t._lo + low, t._hi + high
    width = _width(lo, hi)
    slots = [(m - low).to_bytes(width, "little") for m in table]
    if t._grid is None:
        spread = b"".join(map(slots.__getitem__, t._cols[j]))
    else:
        n, l, incident = t._grid
        spread = _spread(b"".join(slots), incident[j], n, l, width)
    exps = _widen(t._exps, t._size, _width(t._lo, t._hi), width)
    exps += int.from_bytes(spread, "little")
    return _trusted(t.k, t.alphabets, t._grid, t._cols, t._size, exps, lo, hi)


def leading_term(t: SparseTensor) -> SparseTensor:
    """The ε⁰ part of t.

    Rejects tensors with any negative ε exponent: those do not converge as
    ε → 0, so the operator assignment that produced them is wrong.
    """
    kept = []
    if t._lo < 1:  # else every exponent is positive
        width = _width(t._lo, t._hi)
        top = 1 << (8 * width - 1)
        tops = _repeat(top, width, t._size)
        # Adding 2^(w-1) + lo to slots of w bits leaves 2^(w-1) plus the
        # exponent in each, its top bit clear exactly where the exponent is
        # negative; one less a slot then clears it where the exponent is 0
        # as well.  Neither step carries into or borrows from the next
        # slot.  When hi < 0 every exponent is negative, and the offset may
        # be too: every top bit is left clear.
        shifted = t._exps + _repeat(top + t._lo, width, t._size) if t._hi >= 0 else 0
        negative = next(_flagged(tops ^ (shifted & tops), width, t._size), None)
        if negative is not None:
            m = t._exps >> (8 * width * negative) & ((1 << 8 * width) - 1)
            raise NegativeExponentError(t._key(negative), m + t._lo)
        shifted -= tops >> (8 * width - 1)
        kept = list(_flagged(tops ^ (shifted & tops), width, t._size))
    return _trusted(t.k, t.alphabets, None, _codes(t, kept), len(kept), 0, 0, 0)


def check_ghz_structure(t: SparseTensor) -> int:
    """Number of terms, provided t is locally diagonal-equivalent to a GHZ.

    The criterion: at every site, each local label occurs in at most one
    entry.  Then the entries are pairwise distinguishable at every site and
    local diagonal maps rescale t to the standard r-level GHZ, r = #entries.
    A site's first repeat falls within its first |alphabet| + 1 entries, so
    only those are read.
    """
    _require_scalar(t)
    stop = max(map(len, t.alphabets), default=0) + 1
    cols = _codes(t, range(min(stop, t._size)))
    for j, (alphabet, col) in enumerate(zip(t.alphabets, cols)):
        if len(set(col)) < len(col):
            raise GhzStructureError(j + 1, alphabet[_repeated(col)])
    return t._size


def dump(t: SparseTensor) -> str:
    """Debug listing, one entry per line, deterministic order."""
    lines = []
    for key in sorted(t.entries):
        m = t.entries[key]
        lines.append(f"{key} : {f'1*e^{m}' if m else '1'}")
    return "\n".join(lines)
