"""Correctness checks on the CLI's outputs, run outside the timed region.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  The oracles here are the benchmark's own: they read the
generated JSON, not the program's data structures, except where a check is
defined by the program's public API (re-parsing and ``verify_certificate``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from workloads import Op, is_connected

REMOVAL_ORACLE_EDGES = 12


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None  # exception that escaped the command
    digest: str | None = None  # certify: sha256 of the written certificate
    start: float = 0.0  # perf_counter when the command started


def _json_out(out: Outcome, want_rc: tuple[int, ...] = (0,)):
    if out.error is not None:
        return None, f"raised {out.error}"
    if out.rc not in want_rc:
        return None, f"exit code {out.rc}"
    try:
        return json.loads(out.stdout), None
    except json.JSONDecodeError:
        return None, "stdout is not JSON"


# -- verify --------------------------------------------------------------------


def check_verify(op: Op, out: Outcome) -> str | None:
    """The verdict must match how the certificate was made."""
    res, why = _json_out(out, (0, 1))
    if why:
        return why
    if (out.rc == 0) != res["ok"]:
        return f"exit code {out.rc} disagrees with ok={res['ok']}"
    if res["ok"] != op.expect_ok:
        return f"verdict ok={res['ok']}, expected ok={op.expect_ok}"
    if op.expect_ok and "--deep" in op.argv:
        status = {c["name"]: c["status"] for c in res["checks"]}
        if status.get("degeneration") != "pass":
            return f"deep check {status.get('degeneration')!r}, expected 'pass'"
    return None


# -- certify -------------------------------------------------------------------


def check_certify_run(out: Outcome) -> str | None:
    res, why = _json_out(out)
    if why:
        return why
    if out.digest is None:
        return "no certificate written"
    return None if {"M", "achieved_rate", "bound_rate"} <= res.keys() else "report keys"


def check_certificate(blob: bytes, stdout: str, n: int, ghzcert) -> str | None:
    """Re-parse, re-verify and bound one written certificate.

    ``counting_floor <= M <= n^lambda``: the floor is the paper's grid over
    box count, the ceiling its converse (degeneration cannot raise the rank
    n^lambda of the min-cut flattening).
    """
    obj = json.loads(blob)
    cert = ghzcert.Certificate.from_json_dict(obj)
    if cert.to_json_bytes() != blob:
        return "does not re-serialize to the same bytes"
    report = ghzcert.verify_certificate(cert)
    if not report.ok:
        bad = [c.name for c in report.checks if c.status == "fail"]
        return f"verify_certificate fails {bad}"
    l, d, lam, m = len(obj["hypergraph"]["edges"]), obj["d"], obj["lambda"], obj["M"]
    if obj["n"] != n:
        return f"n={obj['n']}, asked for {n}"
    cprime = max((sum(abs(v[t]) for v in obj["c"]) for t in range(d)), default=0)
    floor = -(-(n**l) // (2 * cprime * (n - 1) + 1) ** d)
    if not floor <= m <= n**lam:
        return f"M={m} outside [{floor}, {n**lam}]"
    res = json.loads(stdout)
    if (res["M"], res["bound_rate"]) != (m, lam):
        return f"report says M={res['M']} bound={res['bound_rate']}"
    if res["achieved_rate"] != math.log2(m) / math.log2(n):
        return f"achieved_rate {res['achieved_rate']} != log2 M / log2 n"
    return None


# -- cuts ----------------------------------------------------------------------


def lambda_by_removal(h: dict) -> int:
    """Fewest edges whose removal disconnects h (|E| <= 12)."""
    edges = h["edges"]
    for size in range(1, len(edges) + 1):
        for removed in combinations(range(len(edges)), size):
            kept = [e for i, e in enumerate(edges) if i not in removed]
            if not is_connected({"k": h["k"], "edges": kept}):
                return size
    raise ValueError("a hypergraph with k >= 2 always disconnects")


def reference_lambda(h: dict) -> int | None:
    """The removal oracle's lambda, where its guard allows."""
    if len(h["edges"]) <= REMOVAL_ORACLE_EDGES:
        return lambda_by_removal(h)
    return None


def _crossing(h: dict, side: set[int]) -> list[int]:
    return [
        i for i, e in enumerate(h["edges"])
        if set(e["vertices"]) & side and set(e["vertices"]) - side
    ]


def _witness(h: dict, cut: dict) -> str | None:
    side = set(cut["side"])
    if not side or len(side) >= h["k"]:
        return f"side {sorted(side)} is not a proper subset"
    if _crossing(h, side) != cut["crossing"]:
        return f"side {sorted(side)} does not cross {cut['crossing']}"
    if cut["rank"] != 2 ** len(cut["crossing"]):
        return f"rank {cut['rank']} != 2^{len(cut['crossing'])}"
    return None


def check_paths(h: dict, a: int, b: int, paths: list[list[int]]) -> str | None:
    """Each path runs from a to b through touching edges; no edge is reused."""
    used: set[int] = set()
    for p in paths:
        if not p or set(p) & used or len(set(p)) != len(p):
            return f"path {p} is empty or reuses an edge"
        used.update(p)
        verts = [set(h["edges"][e]["vertices"]) for e in p]
        if a not in verts[0] or b not in verts[-1]:
            return f"path {p} does not join {a} and {b}"
        if any(not (u & v) for u, v in zip(verts, verts[1:])):
            return f"path {p} has consecutive edges that do not touch"
    return None


def check_cut(op: Op, out: Outcome, h: dict, lam: int | None) -> str | None:
    """``lam`` is the oracle's lambda, or the connectivity witness's."""
    res, why = _json_out(out)
    if why:
        return why
    if lam is None:
        return "no lambda to check against: connectivity failed"
    if op.kind == "connectivity":
        if res["lambda"] != lam:
            return f"lambda {res['lambda']} != {lam}"
        for cut in (res["min_cut"], res["weighted_min_cut"]):
            why = _witness(h, cut)
            if why:
                return why
        if len(res["min_cut"]["crossing"]) != lam or res["min_cut_rank"] != 2**lam:
            return "min cut does not realize lambda"
    elif op.kind == "rate":
        if res["lambda"] != lam or res["ghz2_per_copy"] != lam:
            return f"rate reports lambda {res['lambda']}, expected {lam}"
    else:
        a, b = (int(op.argv[op.argv.index(f) + 1]) for f in ("--a", "--b"))
        if (res["a"], res["b"]) != (a, b):
            return f"answered for {res['a']}-{res['b']}, asked {a}-{b}"
        if res["t"] != len(res["paths"]) or res["t"] < lam:
            return f"t={res['t']} with {len(res['paths'])} paths, lambda {lam}"
        return check_paths(h, a, b, res["paths"])
    return None
