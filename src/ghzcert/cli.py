"""Command-line front end.

Subcommands: connectivity, rate, epr, gpor, certify, verify.  Input
hypergraphs and output certificates are JSON.  Each ``_cmd_*`` returns its
exit code, its report as a JSON object (None for certify's certificate) and
a function giving the report's text lines.  ``run`` alone writes stdout:
one JSON line under --json when there is an object, else the text lines.
``certify --out`` writes the certificate over an existing file in place and
trims it to the certificate's length, so ext4 starts no writeback at close.
The new bytes reach the disk only with the system's usual writeback: a crash
soon after can leave the previous certificate whole, which ``verify`` still
passes, the new one, or a mix of the two.  Exit codes: 0 success, 1 failed
verification, 2 usage, 3 invalid input (with a machine-readable error object
on stderr); a reader that closes stdout early leaves the code unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BadFormatError, BadJsonError, GhzcertError
from .gpor import find_gpor
from .hypergraph import Hypergraph, edge_connectivity, line_graph, min_cuts
from .protocol import (
    Certificate,
    epr_rate,
    ghz_rate_bound,
    synthesize_certificate,
    verify_certificate,
)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GhzcertError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, or nesting too deep to parse
        raise BadJsonError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, what: str, from_json_dict):
    """``from_json_dict`` of the JSON at ``path``; BadFormat if it refuses."""
    obj = _load_json(path)
    try:
        return from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadFormatError(f"{path}: malformed {what}: {exc}") from exc


def _load_hypergraph(path: str) -> Hypergraph:
    return _load(path, "hypergraph", Hypergraph.from_json_dict)


def _cut_json(cut) -> dict:
    return {"side": sorted(cut.side), "crossing": list(cut.crossing), "rank": cut.rank}


def _cmd_connectivity(args):
    cut, wcut = min_cuts(_load_hypergraph(args.file))
    lam = len(cut.crossing)
    obj = {
        "lambda": lam,
        "min_cut": _cut_json(cut),
        "min_cut_rank": wcut.rank,
        "weighted_min_cut": _cut_json(wcut),
    }
    return 0, obj, lambda: [
        f"lambda = {lam}",
        f"min cut: side {sorted(cut.side)} crossing edges {list(cut.crossing)}",
        f"min cut rank = {wcut.rank} "
        f"(side {sorted(wcut.side)}, crossing {list(wcut.crossing)})",
    ]


def _cmd_rate(args):
    rb = ghz_rate_bound(_load_hypergraph(args.file))
    return 0, rb.to_json_dict(), lambda: [
        f"lambda={rb.lam}, rate: 1/{rb.lam} copies per GHZ ({rb.lam} GHZ per copy)"
        if rb.uniform
        else f"min cut rank={rb.cut_rank}, "
        f"{rb.ghz2_per_copy:g} GHZ per copy (log2 of rank)"
    ]


def _cmd_epr(args):
    res = epr_rate(_load_hypergraph(args.file), args.a, args.b)
    return 0, res.to_json_dict(), lambda: [
        f"t = {res.t}",
        f"rate: 1/{res.t} EPR per copy",
        *(f"path: edges {list(p)}" for p in res.paths),
    ]


def _cmd_gpor(args):
    h = _load_hypergraph(args.file)
    lam = edge_connectivity(h)
    d = h.l - lam
    # find_gpor returns only a representation that passed the check
    rep = find_gpor(line_graph(h), d, seed=args.seed)
    obj = {
        "lambda": lam,
        "d": d,
        "vectors": [list(v) for v in rep.vectors],
        "ok": True,
        "orthogonality_violations": [],
        "dependent_subsets": [],
        "zero_vectors": [],
    }
    return 0, obj, lambda: [
        f"lambda = {lam}, d = {d}",
        *(f"c[{e}] = {v}" for e, v in enumerate(obj["vectors"])),
        "verified: ok",
    ]


def _write_in_place(path: str, blob: bytes) -> None:
    """Write blob over the file at path, creating it if it is missing.

    The file is never truncated before the write: on ext4, truncating a
    file and writing it again starts its writeback at close, about 0.1 to
    0.4 ms per certificate.  A file longer than blob is trimmed after it
    (devices and FIFOs report size 0 and are only written).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(blob)
        fh.flush()
        if os.fstat(fd).st_size > len(blob):
            os.ftruncate(fd, len(blob))


def _cmd_certify(args):
    cert = synthesize_certificate(_load_hypergraph(args.file), args.n, seed=args.seed)
    blob = cert.to_json_bytes()
    if not args.out:
        return 0, None, blob.decode().splitlines
    try:
        _write_in_place(args.out, blob)
    except OSError as exc:
        raise GhzcertError(f"cannot write {args.out}: {exc}") from exc
    obj = {
        "out": args.out,
        "M": cert.m_count,
        "achieved_rate": cert.achieved_rate,
        "bound_rate": cert.bound_rate,
    }
    return 0, obj, lambda: [
        f"wrote {args.out}: M={cert.m_count}, "
        f"rate {cert.achieved_rate:.4f} of bound {cert.bound_rate}"
    ]


def _cmd_verify(args):
    cert = _load(args.file, "certificate", Certificate.from_json_dict)
    report = verify_certificate(cert, deep=args.deep)
    obj = {"ok": report.ok, "checks": [c._asdict() for c in report.checks]}
    return (0 if report.ok else 1), obj, lambda: [report.summary()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description=(
            "GHZ distillation rates and degeneration certificates for "
            "hypergraph states"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input JSON file")
        p.add_argument(
            "--json", action="store_true", help="machine-readable stdout"
        )

    p = sub.add_parser(
        "connectivity", help="edge-connectivity and minimum cuts"
    )
    common(p)
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("rate", help="optimal GHZ yield per copy")
    common(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("epr", help="pairwise EPR distillation rate")
    common(p)
    p.add_argument("--a", type=int, required=True, help="first vertex")
    p.add_argument("--b", type=int, required=True, help="second vertex")
    p.set_defaults(func=_cmd_epr)

    p = sub.add_parser(
        "gpor", help="general-position orthogonal representation"
    )
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gpor)

    p = sub.add_parser("certify", help="synthesize a protocol certificate")
    common(p)
    p.add_argument("--n", type=int, required=True, help="levels per edge state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="replay a certificate's claims")
    common(p)
    p.add_argument(
        "--deep",
        action="store_true",
        help="run the full tensor degeneration (small grids only)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


# Built once at import: run() keeps no state between calls, so one parser
# serves every call in the process.
_PARSER = build_parser()


def run(argv=None) -> int:
    """Run one command and print its report; return the exit code."""
    args = _PARSER.parse_args(argv)
    try:
        code, obj, lines = args.func(args)
    except GhzcertError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc)}), file=sys.stderr)
        return 3
    out = [json.dumps(obj, sort_keys=True)] if args.json and obj is not None else lines()
    try:
        print(*out, sep="\n", flush=True)
    except BrokenPipeError:
        # the reader closed stdout: drop the rest, and point the stream at
        # devnull so that flushing what it still holds raises nothing at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
