"""Property tests of the verifier and the command line.  A certificate with
one field mutated is rejected, or is the same certificate, or is another
true certificate by the grid-sweep references.  The table parser reads every
argv of a grammar as argparse did."""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    corpus,
    edge_connectivity_by_removal,
    hashed_k3_n4,
    listed_k3_n4,
    ref_completeness,
    ref_exponent_sign,
    ref_injectivity,
    ref_parser,
    ref_solutions,
)
from ghzcert.cli import _JSON, COMMANDS, _parse_args, run
from ghzcert.errors import GhzcertError
from ghzcert.gpor import verify_orthrep
from ghzcert.hypergraph import complete_uniform, cycle_hypergraph
from ghzcert.protocol import (
    Certificate,
    synthesize_certificate,
    verify_certificate,
)

# what the CLI reports as BadFormat (exit 3) when a certificate does not parse
PARSE_ERRORS = (KeyError, TypeError, ValueError, GhzcertError)


@lru_cache(maxsize=1)
def honest() -> tuple[dict, ...]:
    """Corpus certificates at n = 3, C4 and K4^3 at n = 32, as JSON, and
    the K3 n = 4 certificates of version 1 that list their solutions and
    that carry their hash."""
    certs = [synthesize_certificate(h, 3, seed=0) for _, h in corpus()]
    certs.append(synthesize_certificate(cycle_hypergraph(4), 32, seed=0))
    certs.append(synthesize_certificate(complete_uniform(4, 3), 32, seed=0))
    return tuple(json.loads(c.to_json_bytes()) for c in certs) + (
        listed_k3_n4(),
        hashed_k3_n4(),
    )


def _paths(value, prefix=()):
    """Every path to a node below the root, the node's own before its
    children's."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


@lru_cache(maxsize=None)
def paths(idx: int) -> tuple[tuple, ...]:
    return tuple(_paths(honest()[idx]))


def _claims(cert: Certificate) -> Certificate:
    """The certificate without its provenance: the synthesis seed and the
    format version are recorded, not claimed."""
    return cert._replace(seed=0, version="1")


def true_by_reference(cert: Certificate) -> bool:
    """Every claim of ``cert`` holds by the grid sweeps and oracles of the
    tests and by the deep simulation; the grid must be small enough."""
    h, n = cert.hypergraph, cert.n
    assert 2 <= n and n**h.l <= 10**5, "no reference for this grid"
    sols = ref_solutions(cert.rep.vectors, n, cert.g)
    return (
        verify_orthrep(cert.rep).ok
        and edge_connectivity_by_removal(h) == cert.lam == h.l - cert.d
        and ref_completeness(cert)[0] == "pass"
        and ref_exponent_sign(cert, sols)[0] == "pass"
        and ref_injectivity(cert, sols)[0] == "pass"
        and len(sols) == cert.m_count
        and verify_certificate(cert, deep=True).check("degeneration").status
        == "pass"
    )


SCALARS = st.one_of(
    st.integers(-40, 40),
    st.none(),
    st.booleans(),
    st.floats(-40, 40, allow_nan=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.just([0]),
)


@st.composite
def mutants(draw) -> tuple[int, dict]:
    idx = draw(st.integers(0, len(honest()) - 1))
    obj = json.loads(json.dumps(honest()[idx]))
    path = draw(st.sampled_from(paths(idx)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["shift", "replace", "delete", "duplicate"]))
    if op == "shift" and type(old) is int:
        parent[key] = old + draw(st.integers(-3, 3).filter(bool))
    elif op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(old)))
    else:
        parent[key] = draw(SCALARS)
    return idx, obj


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutants())
def test_a_mutated_certificate_is_rejected_or_the_same(case):
    # The assignment does not depend on n, so moving n can leave a true
    # certificate (every solution still on the grid, M above the floor);
    # such a mutant must pass the references instead.
    idx, obj = case
    want = _claims(Certificate.from_json_dict(honest()[idx]))
    try:
        cert = Certificate.from_json_dict(obj)
    except PARSE_ERRORS:
        ok = None  # rejected before verification
    else:
        ok = verify_certificate(cert).ok
        if _claims(cert) == want:
            assert ok
        elif ok:
            assert true_by_reference(cert)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = run(["verify", path, "--json"])
    assert rc == {None: 3, True: 0, False: 1}[ok]


# -- the table parser against argparse ----------------------------------------

# option values, files and stray positionals: ints argparse reads (" 3",
# "3_0", "-5"), words it does not, and words that look like options
WORDS = ["3", "-5", " 3", "3_0", "+2", "x", "", "3.5", "-1.5", "-", "-x",
         "--", "-h", "a b", "-a b", "k3.json"]
# help, unknown options and flags given values; "--=x" is ambiguous among
# the long options and "-hh" is -h twice
ODD = ["-h", "--help", "--he", "-hh", "-h=h", "-hx", "-h=", "--help=x",
       "--x", "-x", "--x=3", "--=x", "--json=", "--deep=1", "--seed", "--n"]
REF_PARSER = ref_parser()


def _spellings(flag: str, names) -> list[str]:
    """flag, and each prefix of it (after "--") that no other name starts with."""
    return [flag] + [flag[:k] for k in range(3, len(flag))
                     if not any(n != flag and n.startswith(flag[:k]) for n in names)]


@st.composite
def argvs(draw):
    """A command, most often its file (at times with a -- before or after
    it) and each required option, in some order, plus up to three more
    options and two odd words; sometimes a word before it all."""
    command = draw(st.sampled_from([*COMMANDS, "nope"]))
    opts = (_JSON, *COMMANDS.get(command, (0, 0, ()))[2])
    names = ["--help", *(o[0] for o in opts)]

    def piece(opt):
        spelt = draw(st.sampled_from(_spellings(opt[0], names)))
        if opt[1] is bool:
            return [spelt]
        value = draw(st.sampled_from(["3", "7", "-5", *WORDS]))
        return draw(st.sampled_from([[spelt, value], [f"{spelt}={value}"], [spelt]]))

    file = [draw(st.sampled_from(["k3.json", "k3.json", "-5", "-"]))]
    file = draw(st.sampled_from([file, file, ["--", *file], [*file, "--"]]))
    pieces = draw(st.sampled_from([[], [file], [file]])) + [
        piece(o) for o in opts if o[2] is ... and draw(st.integers(0, 5))]
    pieces += [piece(o) for o in draw(st.lists(st.sampled_from(opts), max_size=3))]
    pieces += [[w] for w in draw(st.lists(st.sampled_from(ODD + WORDS), max_size=2))]
    order = draw(st.permutations(range(len(pieces))))
    lead = draw(st.lists(st.sampled_from(["-h", "--json", "--", "-5"]), max_size=1))
    return [*lead, command, *(word for k in order for word in pieces[k])]


def _parsed(parse, argv):
    """parse(argv)'s fields, or its exit code; and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(argvs())
@example(["rate", "-h", "--=x"])  # refused before the -h is read
@example(["rate", "--", "-h"])  # a file named -h
@example(["certify", "k3.json", "--n", "3", "--"])  # a -- away from the file
@example(["certify", "k3.json", "--n=3", "--out=--"])  # out is []
@example(["certify", "k3.json", "--n", "3", "--out", "-x"])  # refused
@example(["certify", "-a b", "--n", "3", "--out", "-x y"])  # spaces: positionals
@example(["epr", "k3.json", "--a", "1"])  # --b is required
@example(["rate", "-hh"])
@example(["rate", "-hx", "-h"])
def test_the_table_parser_reads_argv_as_argparse_did(argv):
    got, out, err = _parsed(_parse_args, argv)
    assert got == _parsed(REF_PARSER.parse_args, argv)[0]
    if got == 2:
        assert not out and err.startswith("usage: ghzcert")
    elif got == 0:
        assert out.startswith("usage: ghzcert") and not err
