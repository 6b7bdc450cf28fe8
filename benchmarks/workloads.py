"""Seeded inputs and operation streams for the three workloads.

Every workload is a closed loop with one client.  One *round* is a fixed
mix of CLI commands; the seed picks the random hypergraphs and the order of
the commands within each round, so every seed exercises the same layers in
the same proportions.  Synthesis seeds and tampered fields follow from the
command's slot in the round, so a fixed instance costs the same under every
workload seed and its certificate has the same digest in every run.  A run
executes whole rounds.

The counts in each round place p50 and p90 inside groups of commands of
similar cost, away from the edges between groups, so that they do not jump
from one group to the next between seeds.

* ``certify`` -- the write path: GPOR search, value histograms and
  solution enumeration, through both synthesis branches (several scored
  candidates below a 10^6 grid, one representation above it).
* ``verify`` -- the read path: ``verify --json`` on honest and tampered
  certificates, ``--deep`` up to a 10^5 grid, listed and hash-only.  The
  tampered certificates in ``KNOWN_GAPS`` are probes outside the round.
* ``cuts`` -- ``connectivity``, ``rate`` and ``epr`` on hypergraphs with
  8 to 16 vertices: bipartition enumeration and max-flow only.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations

DEEP_GRID = 10**5
TAMPERS = ("honest", "M", "c", "g", "assignment")
# Tampered certificates that today's verifier accepts, so every run of them
# would fail: K4^3 at n=32 is hash-only on a grid above the 10^6 sweep
# limit, nothing recounts its M, and M moved by one verifies ok (ROADMAP
# item 1).  They run once per run, after the measured loop, as probes whose
# verdicts are reported but do not make the run incorrect; when the verifier
# rejects them, move them back into the round.
KNOWN_GAPS = {("K4^3", 32, "M")}


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``argv`` names files relative to the work dir."""

    kind: str
    key: str
    argv: tuple[str, ...]
    expect_ok: bool | None = None


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: dict[str, dict]  # file name -> hypergraph JSON
    round: list[Op]
    synth: list[Op] = field(default_factory=list)  # verify: honest certificates
    tampered: list[tuple[str, str, str, int]] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)  # verify: known gaps, untimed

    def round_order(self, r: int) -> list[Op]:
        """The commands of round ``r`` in this seed's order."""
        ops = list(self.round)
        random.Random(f"{self.seed}:{r}").shuffle(ops)
        return ops


# -- hypergraphs, as plain JSON ------------------------------------------------


def _hg(k: int, edges) -> dict:
    return {"k": k, "edges": [{"vertices": sorted(e)} for e in edges]}


def cycle(k: int) -> dict:
    return _hg(k, [{i, i % k + 1} for i in range(1, k + 1)])


def path(k: int) -> dict:
    return _hg(k, [{i, i + 1} for i in range(1, k)])


def complete_uniform(k: int, r: int) -> dict:
    return _hg(k, [set(c) for c in combinations(range(1, k + 1), r)])


CORPUS = {
    "K3": cycle(3),
    "C4": cycle(4),
    "C5": cycle(5),
    "K4^2": complete_uniform(4, 2),
    "K4^3": complete_uniform(4, 3),
    "path3": path(3),
    "path4": path(4),
    "path5": path(5),
    "full3": _hg(3, [{1, 2, 3}]),
}


def is_connected(h: dict) -> bool:
    seen, todo = {1}, [1]
    while todo:
        v = todo.pop()
        for e in h["edges"]:
            if v in e["vertices"]:
                for w in e["vertices"]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
    return len(seen) == h["k"]


def spanning_random(rng: random.Random, k: int, l: int) -> dict:
    """A connected hypergraph with exactly k vertices and l edges.

    A random tree of edges covers the vertices, then random edges fill up
    to l.  Edges have 3 vertices (the last tree edge may have 2), so the
    cost of a command depends on k and l, hardly on the seed.
    """
    order = rng.sample(range(1, k + 1), k)
    edges, covered, i = [], [order[0]], 1
    while i < k:
        new = order[i:i + 2]
        i += len(new)
        edges.append([rng.choice(covered)] + new)
        covered += new
    while len(edges) < l:
        edges.append(rng.sample(range(1, k + 1), 3))
    rng.shuffle(edges)
    return _hg(k, edges)


# -- plans ---------------------------------------------------------------------


def _certify(name: str, n: int, s: int) -> Op:
    key = f"{name}-n{n}-s{s}"
    return Op("certify", key, ("certify", f"{name}.json", "--n", str(n),
                               "--seed", str(s), "--out", f"{key}.cert", "--json"))


def plan_certify(seed: int) -> Plan:
    rng = random.Random(f"certify:{seed}")
    inputs = dict(CORPUS)
    inputs["C6"] = cycle(6)
    jobs = [(name, n) for name in CORPUS for n in (2, 3, 4)]
    # Forty cheap random instances of fixed shapes (k <= 6) put p50 inside a
    # dense group of small certify commands that costs about the same under
    # every seed.
    shapes = [(3, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 4)]
    for j in range(40):
        inputs[f"rand{j}"] = spanning_random(rng, *shapes[j % len(shapes)])
        jobs.append((f"rand{j}", 2))
    # Both synthesis branches: C6 at n=6 and K4^3 at n=20 have grids below
    # 10^6 (several scored candidates); C6 at n=11, C4 and K4^3 at n=32 lie
    # above it (one representation; K4^3 at n=32 is hash-only).  p90 of the
    # 79-command round falls in the middle of the eight K4^3 commands at
    # n=20, which are short enough for the calibration around each command
    # to follow the machine's speed.
    jobs += [("C6", 6), ("C6", 11), ("C4", 32), ("K4^3", 32)] + [("K4^3", 20)] * 8
    ops = [_certify(name, n, slot) for slot, (name, n) in enumerate(jobs)]
    return Plan("certify", seed, inputs, ops)


def plan_verify(seed: int) -> Plan:
    rng = random.Random(f"verify:{seed}")
    inputs = dict(CORPUS)
    inputs["C6"] = cycle(6)
    family = [(name, n) for name in CORPUS for n in (2, 3, 4)]
    # Random instances at n=2 stay cheap.  Their shapes are fixed, so they
    # cost about the same under every seed and do not move p50 between seeds.
    for j, (k, l) in enumerate([(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)]):
        inputs[f"rand{j}"] = spanning_random(rng, k, l)
        family.append((f"rand{j}", 2))
    # C6 at n=4 is deep-checked; C4 at n=32 is listed and K4^3 at n=32
    # hash-only, both above the verifier's 10^6 sweep limit.
    family += [("C6", 4), ("C4", 32), ("K4^3", 32)]
    synth, tampered, ops, probes = [], [], [], []
    for slot, (name, n) in enumerate(family):
        op = _certify(name, n, slot)
        synth.append(op)
        grid = n ** len(inputs[name]["edges"])
        for pick, kind in enumerate(TAMPERS):
            fname = f"{op.key}.{kind}.cert"
            tampered.append((op.key, kind, fname, slot * len(TAMPERS) + pick))
            argv = ("verify", fname, "--json") + (("--deep",) if grid <= DEEP_GRID else ())
            check = Op("verify", f"{op.key}.{kind}", argv, kind == "honest")
            (probes if (name, n, kind) in KNOWN_GAPS else ops).append(check)
    return Plan("verify", seed, inputs, ops, synth, tampered, probes)


def plan_cuts(seed: int) -> Plan:
    rng = random.Random(f"cuts:{seed}")
    inputs, ops = {}, []
    # Two instances at k=16 hold p90 of the 30-command round.
    for k in list(range(8, 17)) + [16]:
        name = f"k{k}" if f"k{k}" not in inputs else f"k{k}b"
        inputs[name] = spanning_random(rng, k, k + 2)
        a, b = rng.sample(range(1, k + 1), 2)
        f = f"{name}.json"
        ops += [
            Op("connectivity", name, ("connectivity", f, "--json")),
            Op("rate", name, ("rate", f, "--json")),
            Op("epr", f"{name}-{a}-{b}", ("epr", f, "--a", str(a), "--b", str(b), "--json")),
        ]
    return Plan("cuts", seed, inputs, ops)


PLANS = {"certify": plan_certify, "verify": plan_verify, "cuts": plan_cuts}


def tamper(cert: dict, kind: str, pick: int) -> dict:
    """A copy of ``cert`` with one false field; ``pick`` chooses which."""
    obj = copy.deepcopy(cert)
    rng = random.Random(pick)
    if kind in ("c", "g") and obj["d"] == 0:
        kind = "assignment"  # no coordinates to change
    if kind == "M":
        m = obj["M"]
        m2 = m + (rng.choice((-1, 1)) if m > 1 else 1)
        obj["M"] = m2
        obj["achieved_rate"]["log2_M"] = math.log2(m2)
        if isinstance(obj["solutions"], dict):
            obj["solutions"]["count"] = m2
    elif kind == "c":
        obj["c"][rng.randrange(len(obj["c"]))][rng.randrange(obj["d"])] += 1
    elif kind == "g":
        obj["g"][rng.randrange(obj["d"])] += 1
    elif kind == "assignment":
        terms = [term for row in obj["assignment"]["vertices"] for term in row["quad"]]
        rng.choice(terms)[2] += 1
    return obj


def dump(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
