"""
Orthogonal representations of line graphs
=========================================

The protocol construction needs, for each hyperedge, an integer vector
c_e in dimension d = |E| - lambda(H), such that vectors of disjoint
edges are orthogonal and the family is in general position.  These are
orthogonal representations of the complement of the line graph, found
by seeding a vector per edge and sweeping: each vector is projected off
the span of the earlier non-neighbors' vectors until nothing moves.
"""

from ghzcert import (
    OrthRep,
    cycle_hypergraph,
    edge_connectivity,
    find_gpor,
    graph,
    line_graph,
    verify_orthrep,
)

# C_4: four edges, lambda = 2, so the vectors live in dimension 2.
c4 = cycle_hypergraph(4)
lam = edge_connectivity(c4)
d = c4.l - lam
rep = find_gpor(line_graph(c4), d, seed=0)
print(f"C_4: lambda={lam}, d={d}")
for e, v in enumerate(rep.vectors):
    print(f"  c[{e}] = {list(v)}")

# Opposite edges of the cycle are disjoint; their vectors multiply to zero.
print("c0 . c2 =", sum(a * b for a, b in zip(rep.vectors[0], rep.vectors[2])))
print("c1 . c3 =", sum(a * b for a, b in zip(rep.vectors[1], rep.vectors[3])))

# The verifier replays orthogonality, general position, and nonzeroness.
report = verify_orthrep(rep)
print("verified:", report.ok)

# The verifier names what is wrong with a representation made by hand.
# On the path 0 - 1 - 2, vertices 0 and 2 are non-adjacent, so their
# vectors must be orthogonal; (1, 0) and (1, 2) are not.
g = graph(3, [(0, 1), (1, 2)])
bad = OrthRep(g, 2, ((1, 0), (1, 1), (1, 2)))
report = verify_orthrep(bad)
print("hand-made rep verified:", report.ok)
for u, v, ip in report.orthogonality_violations:
    print(f"  c{u} . c{v} = {ip}, but {u} and {v} are non-adjacent")
