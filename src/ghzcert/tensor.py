"""Sparse multiparty tensors whose entries are unit monomials in ε.

A SparseTensor stores a k-site tensor as a map from label tuples (one label
per site, each label itself a tuple of integers) to one int exponent m per
entry, standing for the term 1·ε^m.  That is all the degeneration uses:
every entry of the product of GHZ states attached to a hypergraph has
coefficient 1, each local diagonal operator with monomial entries ε^m adds
an exponent, and the ε → 0 leading term keeps the entries at exponent 0.
The module carries only what the deep degeneration check replays: the GHZ
product state, local diagonal operators, the leading term and the test that
the result is a GHZ state.

Everything is exact: exponents are ints and coefficients are 1, so "leading
term" is a symbolic statement, never a numerical limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product, tee
from operator import add, itemgetter, not_
from typing import Callable

from .errors import (
    BadLevelError,
    GhzStructureError,
    NegativeExponentError,
    NonScalarCoefficientsError,
)
from .hypergraph import Hypergraph, validate

Label = tuple[int, ...]
EntryKey = tuple[Label, ...]


@dataclass(frozen=True, eq=True)
class SparseTensor:
    """k-site tensor over declared per-site label alphabets.

    ``entries`` maps each stored key to the exponent m of its term 1·ε^m.
    """

    k: int
    alphabets: tuple[tuple[Label, ...], ...]
    entries: dict[EntryKey, int]

    def __post_init__(self):
        if len(self.alphabets) != self.k:
            raise ValueError(
                f"{len(self.alphabets)} alphabets for {self.k} sites"
            )
        entries = self.entries
        widths = set(map(len, entries)) - {self.k}
        if widths:
            raise ValueError(f"entry keys with {sorted(widths)} sites, not {self.k}")
        for j, alphabet in enumerate(self.alphabets):
            foreign = set(map(itemgetter(j), entries)).difference(alphabet)
            if foreign:
                raise ValueError(
                    f"label {min(foreign)} at site {j} not in the declared alphabet"
                )
        if not set(map(type, entries.values())) <= {int}:
            raise ValueError("entry exponents must be ints")

    def __hash__(self):
        return hash((self.k, self.alphabets, frozenset(self.entries)))


def _trusted(k: int, alphabets, entries: dict[EntryKey, int]) -> SparseTensor:
    """A tensor whose keys and int exponents are valid by construction: the
    grid of ghz_state, or the keys of an already validated tensor."""
    t = object.__new__(SparseTensor)
    for name, value in (("k", k), ("alphabets", alphabets), ("entries", entries)):
        object.__setattr__(t, name, value)
    return t


def _label_getter(inc: tuple[int, ...]) -> itemgetter:
    """Maps a grid point i to its site label (i[e] for e in inc), a tuple."""
    if len(inc) > 1:
        return itemgetter(*inc)
    return itemgetter(slice(inc[0], inc[0] + 1) if inc else slice(0, 0))


def _first_exponent(t: SparseTensor, pred) -> tuple[EntryKey, int]:
    return next((key, m) for key, m in t.entries.items() if pred(m))


def _require_scalar(t: SparseTensor) -> None:
    if any(t.entries.values()):
        key, m = _first_exponent(t, bool)
        raise NonScalarCoefficientsError(
            f"entry {key} has ε-dependent coefficient 1*e^{m}"
        )


def ghz_state(h: Hypergraph, n: int) -> SparseTensor:
    """Product of n-level GHZ states, one per hyperedge of h.

    Site j - 1 belongs to vertex j; its label lists the indices of the
    incident edges' terms, in ascending edge order.  One unit entry
    (exponent 0) per point of [0, n-1]^l.
    """
    validate(h)
    if n < 2:
        raise BadLevelError(f"level n={n} < 2")
    incident = [h.incident(j) for j in range(1, h.k + 1)]
    alphabets = tuple(
        tuple(sorted(product(range(n), repeat=len(inc)))) for inc in incident
    )
    grids = tee(product(range(n), repeat=h.l), h.k)
    keys = zip(*(map(_label_getter(inc), grid) for inc, grid in zip(incident, grids)))
    return _trusted(h.k, alphabets, dict.fromkeys(keys, 0))


def apply_local_diagonal(
    t: SparseTensor, vertex: int, exp_fn: Callable[[Label], int]
) -> SparseTensor:
    """Act at one site with the diagonal operator label -> ε^{exp_fn(label)}.

    ``exp_fn`` is called once per label of the site's alphabet.
    """
    j = vertex - 1
    shift = {label: int(exp_fn(label)) for label in t.alphabets[j]}
    keys = t.entries.keys()
    shifts = map(shift.__getitem__, map(itemgetter(j), keys))
    entries = dict(zip(keys, map(add, t.entries.values(), shifts)))
    return _trusted(t.k, t.alphabets, entries)


def leading_term(t: SparseTensor) -> SparseTensor:
    """The ε⁰ part of t.

    Rejects tensors with any negative ε exponent: those do not converge as
    ε → 0, so the operator assignment that produced them is wrong.
    """
    if t.entries and min(t.entries.values()) < 0:
        raise NegativeExponentError(*_first_exponent(t, lambda m: m < 0))
    kept = compress(t.entries, map(not_, t.entries.values()))
    return _trusted(t.k, t.alphabets, dict.fromkeys(kept, 0))


def check_ghz_structure(t: SparseTensor) -> int:
    """Number of terms, provided t is locally diagonal-equivalent to a GHZ.

    The criterion: at every site, each local label occurs in at most one
    entry.  Then the entries are pairwise distinguishable at every site and
    local diagonal maps rescale t to the standard r-level GHZ, r = #entries.
    """
    _require_scalar(t)
    for j in range(t.k):
        seen: set[Label] = set()
        for key in t.entries:
            label = key[j]
            if label in seen:
                raise GhzStructureError(j + 1, label)
            seen.add(label)
    return len(t.entries)


def dump(t: SparseTensor) -> str:
    """Debug listing, one entry per line, deterministic order."""
    lines = []
    for key in sorted(t.entries):
        m = t.entries[key]
        lines.append(f"{key} : {f'1*e^{m}' if m else '1'}")
    return "\n".join(lines)
