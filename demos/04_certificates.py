"""
Self-contained protocol certificates
====================================

A certificate records everything needed to audit a distillation claim:
the hypergraph, the edge vectors, the target g, the solution count, and
the per-vertex exponent shares.  Serialization is canonical, so the same
input and seed always give the same bytes, and verification replays every
claim from scratch, recounting the solutions itself.
"""

import json

from ghzcert import (
    Certificate,
    cycle_hypergraph,
    synthesize_certificate,
    verify_certificate,
)

# Build the K_3, n=4 certificate (the GHZ_12 protocol from demo 03).
cert = synthesize_certificate(cycle_hypergraph(3), 4, seed=0)
print(f"lambda={cert.lam} d={cert.d} M={cert.m_count}")
print(f"achieved rate log2(M)/log2(n) = {cert.achieved_rate:.4f} "
      f"(upper bound {cert.bound_rate})")

# Canonical bytes: synthesize twice, compare.
again = synthesize_certificate(cycle_hypergraph(3), 4, seed=0)
blob = cert.to_json_bytes()
print("deterministic:", blob == again.to_json_bytes(), f"({len(blob)} bytes)")

# Round trip through JSON.
back = Certificate.from_json_dict(json.loads(blob))
print("round trip intact:", back == cert)

# Verification replays the seven checks; deep also runs the tensor
# degeneration and recognizes the GHZ structure of the leading term.
report = verify_certificate(cert, deep=True)
print()
print(report.summary())

# Tampering does not survive.  Shift g by one and watch the completeness
# and exponent sign checks object.  K3 at n=4 has 12 solutions at the new g
# too, so counting has nothing to object to.
bad = cert._replace(g=(cert.g[0] + 1,))
report = verify_certificate(bad)
print()
print("tampered g:", "rejected" if not report.ok else "accepted?!")
for c in report.checks:
    if c.status == "fail":
        print(f"  {c.name}: {c.detail}")
