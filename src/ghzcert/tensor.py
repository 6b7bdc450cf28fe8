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
step derives its columns from the tensor it is given.

The tensor is stored column-wise.  Each site has one int list, the code of
every entry's label there (its index in the site's alphabet), and the
tensor has one exponent list, both in entry order.  A diagonal operator at
a site is a table indexed by code, so applying it is one pass of int adds
over that site's column; the columns are shared between a tensor and the
tensors derived from it and never mutated.  Keys, tuples of k label tuples,
are never formed for the n^l grid: only for the entries ``entries`` lists
when asked, and for the one entry an error names.

Everything is exact: exponents are ints and coefficients are 1, so "leading
term" is a symbolic statement, never a numerical limit.
"""

from __future__ import annotations

from itertools import chain, compress, count, product, repeat
from operator import add, not_
from typing import Callable

from .errors import GhzStructureError, NegativeExponentError, NonScalarCoefficientsError
from .hypergraph import Hypergraph, _repeated, _require_level

Label = tuple[int, ...]
EntryKey = tuple[Label, ...]


class SparseTensor:
    """k-site tensor over declared per-site label alphabets.

    Built only by ``ghz_state``, ``apply_local_diagonal`` and
    ``leading_term``, whose columns are valid by construction.  ``entries``
    maps each key to the exponent m of its term 1·ε^m, in entry order,
    built from the columns on first use.
    """

    __slots__ = ("k", "alphabets", "_codes", "_exps", "_entries")

    @property
    def entries(self) -> dict[EntryKey, int]:
        if self._entries is None:
            labels = [map(a.__getitem__, col) for a, col in zip(self.alphabets, self._codes)]
            keys = zip(*labels) if labels else repeat((), len(self._exps))
            self._entries = dict(zip(keys, self._exps))
        return self._entries

    def _key(self, i: int) -> EntryKey:
        return tuple(a[col[i]] for a, col in zip(self.alphabets, self._codes))


def _trusted(k: int, alphabets, codes, exps: list[int]) -> SparseTensor:
    """The tensor with these columns: the grid of ghz_state, or columns
    derived from another tensor's."""
    t = object.__new__(SparseTensor)
    t.k, t.alphabets, t._codes, t._exps, t._entries = k, alphabets, codes, exps, None
    return t


def _first(t: SparseTensor, pred) -> tuple[EntryKey, int]:
    i = next(compress(count(), map(pred, t._exps)))
    return t._key(i), t._exps[i]


def _require_scalar(t: SparseTensor) -> None:
    if any(t._exps):
        key, m = _first(t, bool)
        raise NonScalarCoefficientsError(
            f"entry {key} has ε-dependent coefficient 1*e^{m}"
        )


def _grid_codes(inc: tuple[int, ...], n: int, l: int) -> list[int]:
    """Codes of one site's labels over [0, n-1]^l in lexicographic order.

    The label of grid point i is (i[e] for e in inc); in the sorted
    alphabet its index is the base-n number of those digits.  The column is
    built from the last coordinate up: a coordinate the site does not see
    repeats the column n times, one it sees adds its digit times its place
    value to n copies.
    """
    place = {e: n ** p for p, e in enumerate(reversed(inc))}
    col = [0]
    for e in reversed(range(l)):
        w = place.get(e)
        if w is None:
            col = col * n
        else:
            col = list(chain(col, *(map((w * v).__add__, col) for v in range(1, n))))
    return col


def ghz_state(h: Hypergraph, n: int) -> SparseTensor:
    """Product of n-level GHZ states, one per hyperedge of h.

    Site j - 1 belongs to vertex j; its label lists the indices of the
    incident edges' terms, in ascending edge order.  One unit entry
    (exponent 0) per point of [0, n-1]^l, in lexicographic order.
    """
    _require_level(n)
    incident = [h.incident(j) for j in range(1, h.k + 1)]
    alphabets = tuple(tuple(product(range(n), repeat=len(inc))) for inc in incident)
    codes = tuple(_grid_codes(inc, n, h.l) for inc in incident)
    return _trusted(h.k, alphabets, codes, [0] * n**h.l)


def apply_local_diagonal(
    t: SparseTensor, vertex: int, exp_fn: Callable[[Label], int]
) -> SparseTensor:
    """Act at one site with the diagonal operator label -> ε^{exp_fn(label)}.

    ``exp_fn`` is called once per label of the site's alphabet.
    """
    j = vertex - 1
    shift = [int(exp_fn(label)) for label in t.alphabets[j]]
    exps = list(map(add, t._exps, map(shift.__getitem__, t._codes[j])))
    return _trusted(t.k, t.alphabets, t._codes, exps)


def leading_term(t: SparseTensor) -> SparseTensor:
    """The ε⁰ part of t.

    Rejects tensors with any negative ε exponent: those do not converge as
    ε → 0, so the operator assignment that produced them is wrong.
    """
    exps = t._exps
    if exps and min(exps) < 0:
        raise NegativeExponentError(*_first(t, lambda m: m < 0))
    kept = list(compress(count(), map(not_, exps)))
    codes = tuple(list(map(col.__getitem__, kept)) for col in t._codes)
    return _trusted(t.k, t.alphabets, codes, [0] * len(kept))


def check_ghz_structure(t: SparseTensor) -> int:
    """Number of terms, provided t is locally diagonal-equivalent to a GHZ.

    The criterion: at every site, each local label occurs in at most one
    entry.  Then the entries are pairwise distinguishable at every site and
    local diagonal maps rescale t to the standard r-level GHZ, r = #entries.
    """
    _require_scalar(t)
    for j, col in enumerate(t._codes):
        if len(set(col)) < len(col):
            raise GhzStructureError(j + 1, t.alphabets[j][_repeated(col)])
    return len(t._exps)


def dump(t: SparseTensor) -> str:
    """Debug listing, one entry per line, deterministic order."""
    lines = []
    for key in sorted(t.entries):
        m = t.entries[key]
        lines.append(f"{key} : {f'1*e^{m}' if m else '1'}")
    return "\n".join(lines)
