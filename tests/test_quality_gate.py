"""Quality gate: the M that synthesis certifies on every small hypergraph.

The classes are the 171 connected hypergraphs on four vertices (edges of
size >= 2 that cover every vertex, up to the 24 vertex permutations) and the
21 connected graphs on five vertices, each written as its canonical edge
set.  Each class is certified at n = 3 with seed 0, and its M must equal the
one in ``tests/data/quality_gate.json``.  A smaller M is a regression.  A
larger M is a gain: rewrite the table in the same commit with

    PYTHONPATH=src python tests/test_quality_gate.py --write

and log the change, instead of editing the table by hand.
"""

import json
import sys
from itertools import combinations, permutations
from pathlib import Path

from ghzcert.hypergraph import hypergraph
from ghzcert.protocol import synthesize_certificate

TABLE = Path(__file__).resolve().parent / "data" / "quality_gate.json"
N, SEED = 3, 0
# (vertices, edge sizes): hypergraphs on 4 vertices, graphs on 5
FAMILIES = ((4, (2, 3, 4)), (5, (2,)))
WRITE = "PYTHONPATH=src python tests/test_quality_gate.py --write"


def _connected(k: int, edges) -> bool:
    """Whether ``edges`` cover 1..k and join them into one component."""
    reached, frontier = {1}, [1]
    while frontier:
        v = frontier.pop()
        for e in edges:
            if v in e:
                frontier.extend(e - reached)
                reached |= e
    return len(reached) == k


def classes(k: int, sizes) -> list[tuple[tuple[int, ...], ...]]:
    """The connected hypergraphs on vertices 1..k with edges of the given
    sizes, one per class under vertex permutations: the least sorted edge
    list over all relabellings, in ascending order."""
    possible = [frozenset(c) for r in sizes for c in combinations(range(1, k + 1), r)]
    relabel = [dict(zip(range(1, k + 1), p)) for p in permutations(range(1, k + 1))]
    found = set()
    for mask in range(1, 1 << len(possible)):
        edges = [e for i, e in enumerate(possible) if mask >> i & 1]
        if _connected(k, edges):
            found.add(
                min(
                    tuple(sorted(tuple(sorted(p[v] for v in e)) for e in edges))
                    for p in relabel
                )
            )
    return sorted(found)


def measure(found: dict[int, list]) -> list[dict]:
    """One row per class of ``found`` (k -> its classes): k, the canonical
    edges and the certified M."""
    rows = []
    for k, edge_sets in found.items():
        for edges in edge_sets:
            cert = synthesize_certificate(hypergraph(k, edges), N, seed=SEED)
            rows.append({"k": k, "edges": [list(e) for e in edges], "M": cert.m_count})
    return rows


def enumerate_families() -> dict[int, list]:
    return {k: classes(k, sizes) for k, sizes in FAMILIES}


def _key(row: dict) -> tuple:
    return row["k"], tuple(map(tuple, row["edges"]))


def test_every_small_class_keeps_its_m():
    found = enumerate_families()
    assert {k: len(edge_sets) for k, edge_sets in found.items()} == {4: 171, 5: 21}
    want = {_key(row): row["M"] for row in json.loads(TABLE.read_text())}
    got = {_key(row): row["M"] for row in measure(found)}
    assert set(got) == set(want)
    drops = {key: (want[key], m) for key, m in got.items() if m < want[key]}
    rises = {key: (want[key], m) for key, m in got.items() if m > want[key]}
    assert not drops, f"M dropped (table, now): {drops}"
    assert not rises, f"M rose (table, now): {rises}; rewrite the table with {WRITE}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {WRITE}")
    rows = measure(enumerate_families())
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} classes to {TABLE}")
