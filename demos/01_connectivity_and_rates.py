"""
Edge connectivity and GHZ yield
===============================

The number of GHZ_2 states a hypergraph state is worth, per copy and
asymptotically, is the edge connectivity of the hypergraph: the minimum
number of edges crossing any bipartition of the parties.  This script
computes cuts and rates for a few small hypergraphs.
"""

from itertools import combinations

from ghzcert import (
    Hypergraph,
    cycle_hypergraph,
    complete_uniform,
    edge_connectivity,
    ghz_rate_bound,
    hypergraph,
    is_connected,
    min_cut,
    path_hypergraph,
    single_full_edge,
)

# The triangle: three parties, one shared GHZ_n per pair.
k3 = cycle_hypergraph(3)
cut = min_cut(k3)
print("K_3: lambda =", edge_connectivity(k3))
print("     witness side", sorted(cut.side), "crossing edges", list(cut.crossing))

# Removing edges until the hypergraph disconnects gives the same number.
def removal_lambda(h):
    """Fewest edges whose removal disconnects h, trying every edge subset."""
    for size in range(1, h.l + 1):
        for removed in combinations(range(h.l), size):
            kept = tuple(e for i, e in enumerate(h.edges) if i not in removed)
            if not is_connected(Hypergraph(h.k, kept)):
                return size


print("     removal oracle agrees:", removal_lambda(k3))

# A path is worth exactly one GHZ_2 per copy; complete uniform hypergraphs
# follow the binomial pattern lambda(K_k^l) = C(k-1, l-1).
for name, h in [
    ("path_5", path_hypergraph(5)),
    ("K_4^2", complete_uniform(4, 2)),
    ("K_5^2", complete_uniform(5, 2)),
    ("K_4^3", complete_uniform(4, 3)),
    ("one full edge on 3 vertices", single_full_edge(3)),
]:
    print(f"{name}: lambda = {edge_connectivity(h)}")

# The rate report: 1/lambda copies per GHZ_2, i.e. lambda GHZ_2 per copy.
rb = ghz_rate_bound(k3)
print("K_3 rate:", rb.ghz2_per_copy, "GHZ_2 per copy")

# Edges can carry different levels.  Then cuts are weighted by log2 of the
# product of crossing levels and the right quantity is the min cut rank.
mixed = hypergraph(3, [{1, 2}, {2, 3}, {1, 3}], levels=[2, 2, 8])
wcut = min_cut(mixed, weighted=True)
print("mixed levels: min cut rank =", wcut.rank, "over side", sorted(wcut.side))
print("rate:", ghz_rate_bound(mixed).ghz2_per_copy, "GHZ_2 per copy")
