"""Command-line front end.

Subcommands: connectivity, rate, epr, gpor, certify, verify.  ``_parse_args``
reads argv off the ``COMMANDS`` table as argparse read it, without importing
argparse; -h prints help and exits 0.  Input
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

import json
import os
import re
import sys
from types import SimpleNamespace

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


# Each command's handler, help line and options besides file and --json, as
# (flag, type, default, help): a bool flag takes no value, and a default of
# ... makes the option required.
_SEED = ("--seed", int, 0, "seed of the representation search")
COMMANDS = {
    "connectivity": (_cmd_connectivity, "edge-connectivity and minimum cuts", ()),
    "rate": (_cmd_rate, "optimal GHZ yield per copy", ()),
    "epr": (_cmd_epr, "pairwise EPR distillation rate", (
        ("--a", int, ..., "first vertex"), ("--b", int, ..., "second vertex"))),
    "gpor": (_cmd_gpor, "general-position orthogonal representation", (_SEED,)),
    "certify": (_cmd_certify, "synthesize a protocol certificate", (
        ("--n", int, ..., "levels per edge state"), _SEED,
        ("--out", str, None, "write the certificate here instead of stdout"))),
    "verify": (_cmd_verify, "replay a certificate's claims", (("--deep", bool, False,
               "run the full tensor degeneration (small grids only)"),)),
}
_JSON = ("--json", bool, False, "machine-readable stdout")
_HELP = ("-h", "--help")


def _exit(command, error: str = ""):
    """Print the usage of ghzcert, or of command, and the error to stderr and
    exit 2, or with no error the help to stdout and exit 0."""
    if command is None:
        usage = f"usage: ghzcert [-h] {{{','.join(COMMANDS)}}} ..."
        rows = [(c, spec[1]) for c, spec in COMMANDS.items()]
    else:
        opts = [(f if t is bool else f"{f} {f[2:].upper()}", d, h)
                for f, t, d, h in (_JSON, *COMMANDS[command][2])]
        usage = " ".join([f"usage: ghzcert {command} [-h]", *(
            w if d is ... else f"[{w}]" for w, d, _ in opts), "file"])
        rows = [("file", "input JSON file"), ("-h, --help", "show this help"),
                *((w, h) for w, _, h in opts)]
    lines = [f"ghzcert: error: {error}"] if error else [
        f"  {w:<22}{h}" for w, h in rows]
    print(usage, *lines, sep="\n", file=sys.stderr if error else sys.stdout)
    sys.exit(2 if error else 0)


def _option(arg: str, names, command):
    """None if argparse took arg for a positional, else (the option, None if
    unknown, and its =value or None); "-hh" and "-h=h" are -h.  Before the
    command a -- is a positional, and taken for the command it fails."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg[:2] == "-h":
        return "-h", None if re.fullmatch(r"-h(=?h+)?", arg) else arg
    key, eq, value = arg.partition("=")
    found = [key] if key in names else [
        n for n in names if arg[1] == "-" and n.startswith(key)]
    if len(found) > 1:
        _exit(command, f"ambiguous option {arg}")
    if found:
        return found[0], value if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg else (None, None)


def _parse_args(argv=None) -> SimpleNamespace:
    """``command``, its handler ``func``, ``file``, ``json`` and its options,
    read from argv as argparse read them; -h prints help and exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # kinds[j] is what _option made of argv[j], or "-" for the first --
    kinds, ns, extras, j, at = [None] * len(argv), {}, [], 0, None
    while j < len(argv):
        command, arg = ns.get("command"), argv[j]
        kind = kinds[j] if ns else _option(arg, _HELP, None)
        j += 1
        if kind == "-" and (at == j - 2 or at is None and j < len(argv)):
            continue  # a -- just before or after the file
        if kind is None and not ns:
            if arg not in COMMANDS:
                break
            func, _, opts = COMMANDS[arg]
            opts = {o[0]: o for o in (_JSON, *opts)}
            ns = {"command": arg, "func": func, "file": None,
                  **{f[2:]: o[2] for f, o in opts.items()}}
            # every argument after the first -- is a positional
            cut = argv.index("--", j) if "--" in argv[j:] else len(argv)
            kinds[j:] = [_option(a, (*_HELP, *opts), arg) if k < cut else
                         "-" if k == cut else None for k, a in enumerate(argv[j:], j)]
        elif kind is None and at is None:
            ns["file"], at = arg, j - 1
        elif kind in (None, "-") or kind[0] is None:
            extras.append(arg)
        elif kind[0] in _HELP or opts[kind[0]][1] is bool:
            if kind[1] is not None:
                _exit(command, f"{kind[0]} takes no value: {arg}")
            if kind[0] in _HELP:
                _exit(command)
            ns[kind[0][2:]] = True
        else:
            if kind[1] is None and (j == len(argv) or kinds[j] is not None):
                _exit(command, f"{kind[0]} takes a value")
            value, j = (argv[j], j + 1) if kind[1] is None else (kind[1], j)
            try:  # argparse drops a "--" value, as in --out=--, and gives []
                ns[kind[0][2:]] = opts[kind[0]][1](value) if value != "--" else []
            except ValueError:
                _exit(command, f"{kind[0]} takes an int, not {value!r}")
    missing = ["file" if ns else "a known command"] * (at is None) + [
        f"--{k}" for k, v in ns.items() if v is ...]
    if missing or extras:
        _exit(ns.get("command"), f"missing {' '.join(missing)}" if missing
              else f"unknown {' '.join(extras)}")
    return SimpleNamespace(**ns)


def run(argv=None) -> int:
    """Run one command and print its report; return the exit code."""
    args = _parse_args(argv)
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
