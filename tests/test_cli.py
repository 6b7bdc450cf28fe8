import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ghzcert.cli
import ghzcert.gpor
from ghzcert.cli import run
from ghzcert.hypergraph import (
    complete_uniform,
    cycle_hypergraph,
    hypergraph,
    path_hypergraph,
)
from ghzcert.protocol import (
    DEEP_GRID_LIMIT,
    Certificate,
    build_exponent_assignment,
    enumerate_solutions,
    synthesize_certificate,
)

from conftest import (
    HASHED_K3_N4,
    LISTED_K3_N4,
    REPEATED_KEYS,
    REVERSED_QUAD,
    hashed_k3_n4,
    listed_k3_n4,
    ref_parser,
    repeat_key,
    reverse_quad,
    set_m,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(cycle_hypergraph(3).to_json_dict()))
    return str(path)


@pytest.fixture
def path4_file(tmp_path):
    path = tmp_path / "path4.json"
    path.write_text(json.dumps(path_hypergraph(4).to_json_dict()))
    return str(path)


def test_connectivity_human(k3_file, capsys):
    assert run(["connectivity", k3_file]) == 0
    out = capsys.readouterr().out
    assert "lambda = 2" in out
    assert "min cut rank = 4" in out


def test_connectivity_json(k3_file, capsys):
    assert run(["connectivity", k3_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lambda"] == 2
    assert obj["min_cut_rank"] == 4
    assert len(obj["min_cut"]["crossing"]) == 2


def test_rate_human(k3_file, capsys):
    assert run(["rate", k3_file]) == 0
    out = capsys.readouterr().out
    assert "lambda=2" in out and "rate: 1/2 copies per GHZ" in out
    assert "(2 GHZ per copy)" in out


def test_rate_json_mixed_levels(tmp_path, capsys):
    h = hypergraph(3, [{1, 2, 3}], [4])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["rate", str(path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["uniform_level_2"] is False
    assert obj["min_cut_rank"] == 4 and obj["ghz2_per_copy"] == 2.0


def test_rate_human_mixed_levels_byte_exact(tmp_path, capsys):
    # C4 with levels 3, 3, 5, 5: the least cut severs the two level-3 edges
    h = hypergraph(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}], [3, 3, 5, 5])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["rate", str(path)]) == 0
    assert capsys.readouterr().out == (
        "min cut rank=9, 3.16993 GHZ per copy (log2 of rank)\n"
    )


@pytest.mark.parametrize("command", ["connectivity", "rate"])
def test_mixed_levels_above_24_vertices(command, tmp_path, capsys):
    # a 30-vertex cycle whose edge i has level (2, 3, 4)[i % 3]; no cut
    # enumerates bipartitions, so there is no vertex cap
    edges = [{i, i % 30 + 1} for i in range(1, 31)]
    h = hypergraph(30, edges, [(2, 3, 4)[i % 3] for i in range(30)])
    path = tmp_path / "mixed30.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run([command, str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["min_cut_rank"] == 4


def test_epr_endpoints(path4_file, k3_file, capsys):
    assert run(["epr", path4_file, "--a", "1", "--b", "4"]) == 0
    out = capsys.readouterr().out
    assert "t = 1" in out and "rate: 1/1 EPR per copy" in out
    assert run(["epr", k3_file, "--a", "1", "--b", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["t"] == 2 and obj["rate"] == "1/2"


def test_gpor_reports_vectors(k3_file, capsys):
    assert run(["gpor", k3_file]) == 0
    out = capsys.readouterr().out
    assert "lambda = 2, d = 1" in out
    assert "c[0] =" in out and "c[2] =" in out
    assert "verified: ok" in out


def test_gpor_json(k3_file, capsys):
    assert run(["gpor", k3_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True and obj["d"] == 1
    assert len(obj["vectors"]) == 3


def test_certify_verify_round_trip(k3_file, tmp_path, capsys):
    out_path = str(tmp_path / "cert.json")
    assert run(["certify", k3_file, "--n", "4", "--out", out_path]) == 0
    line = capsys.readouterr().out
    assert "M=12" in line
    assert run(["verify", out_path]) == 0
    summary = capsys.readouterr().out
    assert "counting" in summary and "fail" not in summary
    assert run(["verify", out_path, "--deep", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    statuses = {c["name"]: c["status"] for c in obj["checks"]}
    assert statuses["degeneration"] == "pass"


def test_verify_rejects_tampered(k3_file, tmp_path, capsys):
    cert = synthesize_certificate(cycle_hypergraph(3), 4, seed=0)
    obj = cert.to_json_dict()
    obj["g"] = [obj["g"][0] + 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_certify_stdout_deterministic(k3_file):
    cmd = [sys.executable, "-m", "ghzcert.cli", "certify", k3_file, "--n", "4"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    obj = json.loads(first.stdout)
    assert obj["M"] == 12
    assert first.stdout.endswith(b"\n")


# sha256 of `certify` stdout for four commands (instance, n, seed) of the
# benchmark's certify round, captured while every value histogram was a dict
CERTIFY_SHA256 = {
    ("C6", 6, 67): "c065da82a1d7a12b32e427db6326b1d812c1937582a9311110ba5a745901ec11",
    ("C6", 11, 68): "d1bb6ef07c71d08b9cfa471ce9f955eaed35746a3cc4cb738a150ddb8c3707e5",
    ("C4", 32, 69): "a4dfe54ed5017ab30a74561102f35044e6bcad058bb3a6ff99ba566c7b9e91af",
    ("K4^3", 32, 70): "8a077a452e9988bdd1803fe809e0d73b8ff0724c2307f58f98e6f7214ad203b8",
}


@pytest.mark.parametrize(
    "case", list(CERTIFY_SHA256), ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}"
)
def test_certify_bytes_of_the_benchmark_round_are_pinned(case, tmp_path, capsys):
    name, n, seed = case
    h = {
        "C6": cycle_hypergraph(6),
        "C4": cycle_hypergraph(4),
        "K4^3": complete_uniform(4, 3),
    }[name]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    argv = ["certify", str(path), "--n", str(n), "--seed", str(seed)]
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CERTIFY_SHA256[case]
    # --out over a longer file leaves exactly the same bytes
    cert = tmp_path / "c.cert"
    cert.write_bytes(b"x" * (len(out) + 4096))
    assert run([*argv, "--out", str(cert)]) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == CERTIFY_SHA256[case]


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command", "FILE"],
        ["certify", "FILE"],  # --n is required
        [],
        ["rate", "FILE", "--nope"],  # unknown option
        ["certify", "FILE", "--n", "three"],  # not an int
        ["certify", "FILE", "--n"],  # no value
        ["verify", "FILE", "--deep=1"],  # a flag given a value
        ["rate", "FILE", "FILE"],  # an extra positional
        ["epr", "--a", "1", "--b", "2"],  # no file
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_usage_errors_exit_2(argv, k3_file, capsys):
    with pytest.raises(SystemExit) as err:
        run([k3_file if a == "FILE" else a for a in argv])
    assert err.value.code == 2
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.startswith("usage: ghzcert")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *ghzcert.cli.COMMANDS])
def test_help_names_every_option(command, flag, capsys):
    # the top level names every command, a command every option argparse had
    parser = ref_parser()
    if command:
        parser = parser._subparsers._group_actions[0].choices[command]
    with pytest.raises(SystemExit) as err:
        run([command, flag] if command else [flag])
    assert err.value.code == 0
    out, stderr = capsys.readouterr()
    assert out.startswith("usage: ghzcert") and stderr == ""
    names = [*parser._option_string_actions] if command else [*ghzcert.cli.COMMANDS]
    assert names and all(name in out for name in names)


def test_missing_file_exit_3(capsys):
    assert run(["connectivity", "/nonexistent/h.json"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "Error" and "cannot read" in err["message"]


def test_bad_json_exit_3(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    assert run(["connectivity", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadJson"


def test_bad_format_exit_3(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"k": 3}))
    assert run(["connectivity", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"


def test_disconnected_exit_3(tmp_path, capsys):
    h = hypergraph(4, [{1, 2}, {3, 4}])
    path = tmp_path / "split.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["rate", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "Disconnected"


def test_certify_grid_guard_exit_3(k3_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GHZCERT_MAX_GRID", "10")
    assert run(["certify", k3_file, "--n", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "GridTooLarge"


def test_very_large_n_is_refused_by_its_grid(tmp_path, capsys):
    # C4 at n = 3 with n set to 10^2200 (and log2_n to match) made verify
    # raise out of run(), and certify at that n too: the grid was written
    # out as n^l in decimal, past Python's 4300-digit limit
    n = 10**2200
    obj = synthesize_certificate(cycle_hypergraph(4), 3, seed=0).to_json_dict()
    obj["n"], obj["achieved_rate"]["log2_n"] = n, math.log2(n)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert run(["verify", str(path), "--json"]) == 1
    assert time.perf_counter() - start < 1.0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    counting = checks["counting"]
    assert counting["status"] == "fail"
    assert counting["detail"].startswith("cannot recount M: GridTooLarge")
    assert "ValueError" not in counting["detail"]
    src = tmp_path / "c4.json"
    src.write_text(json.dumps(cycle_hypergraph(4).to_json_dict()))
    start = time.perf_counter()
    assert run(["certify", str(src), "--n", str(n)]) == 3
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["code"] == "GridTooLarge"


@pytest.mark.parametrize("raw", ["lots", "0"])
def test_certify_bad_grid_limit_exit_3(raw, k3_file, monkeypatch, capsys):
    monkeypatch.setenv("GHZCERT_MAX_GRID", raw)
    assert run(["certify", k3_file, "--n", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadGridLimit"


def test_verify_bad_grid_limit_exit_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cert.json"
    path.write_bytes(synthesize_certificate(cycle_hypergraph(3), 4).to_json_bytes())
    monkeypatch.setenv("GHZCERT_MAX_GRID", "lots")
    assert run(["verify", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["code"] == "BadGridLimit"


def test_verify_hash_only_m_other_than_its_count_is_bad_format(tmp_path, capsys):
    obj = synthesize_certificate(complete_uniform(4, 3), 32, seed=0).to_json_dict()
    obj["M"] += 5
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert "M 21861 != solution count 21856" in err["message"]


def test_verify_m_zero_is_bad_format(tmp_path, capsys):
    # a count of no solutions states a rate of log2(0)
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    obj["M"] = obj["solutions"]["count"] = 0
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert "M 0 has no log2" in err["message"]


@pytest.mark.parametrize(
    "value", [12345, ["7e33" * 16], "7E33" * 16, "7e33" * 15 + "7e3", None],
    ids=["int", "list", "upper-case", "63-digits", "null"],
)
def test_verify_hash_other_than_a_sha256_digest_is_bad_format(value, tmp_path, capsys):
    # An int or a one-element list was once stored as its str() and reported
    # as "solution hash mismatch" (exit 1), then refused as BadFormat (exit
    # 3).  A hash beside the count is now ignored, whatever it holds: the
    # verifier solves for the solutions again, so the hash states nothing
    # the recount does not.
    obj = synthesize_certificate(complete_uniform(4, 3), 32, seed=0).to_json_dict()
    obj["solutions"]["hash"] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize("instance", ["K4^3-n32-hash-only", "C6-n11-listed"])
def test_verify_rejects_false_counts_above_the_deep_grid(instance, tmp_path, capsys):
    # both verified ok while only grids up to 10^6 were recounted
    if instance == "K4^3-n32-hash-only":
        obj = synthesize_certificate(complete_uniform(4, 3), 32, seed=0).to_json_dict()
        set_m(obj, obj["M"] + 1)
        obj["solutions"]["count"] += 1
    else:  # listed, as version 1 allows
        cert = synthesize_certificate(cycle_hypergraph(6), 11, seed=0)
        obj = cert.to_json_dict()
        obj["solutions"] = [list(i) for i in enumerate_solutions(cert.rep, 11, cert.g)]
        del obj["solutions"][7]
        set_m(obj, 30)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["counting"]["status"] == "fail"
    assert "!= recounted" in checks["counting"]["detail"]


def test_verify_level_below_2_is_bad_format(tmp_path, capsys):
    # K3 at n = 1 (M = 1, g = 0 and the assignment rebuilt for it) verified
    # ok, though its rate divides by log2(1) = 0 and --deep raised BadLevel
    cert = synthesize_certificate(cycle_hypergraph(3), 2, seed=0)
    obj = cert.to_json_dict()
    obj["n"], obj["achieved_rate"]["log2_n"], obj["g"] = 1, 0.0, [0]
    set_m(obj, 1)
    obj["solutions"] = {"count": 1}
    obj["assignment"] = build_exponent_assignment(
        cert.hypergraph, cert.rep, (0,)
    ).to_json_dict()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    for flags in ([], ["--deep"]):
        assert run(["verify", str(path), *flags]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "code": "BadFormat",
            "message": f"{path}: malformed certificate: level n=1 < 2",
        }


def test_listed_certificate_of_version_1_verifies(capsys):
    for flags, deep in (([], "skipped"), (["--deep"], "pass")):
        assert run(["verify", str(LISTED_K3_N4), "--json", *flags]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert {c["status"] for c in checks.values()} == {"pass", deep}
        assert checks["degeneration"]["status"] == deep


def test_listed_certificate_of_version_1_is_rewritten_hash_only():
    # the list is read for its length, and the certificate written back is
    # the file with that count in its place, which is what synthesis writes
    # today
    obj = listed_k3_n4()
    obj["solutions"] = {"count": len(obj["solutions"])}
    want = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    cert = Certificate.from_json_dict(listed_k3_n4())
    assert cert.to_json_bytes() == want
    assert want == synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_bytes()


def test_listed_certificate_with_a_row_changed_fails_counting(tmp_path, capsys):
    # A changed row failed counting with "solution hash mismatch" (exit 1)
    # while the list was read as its hash.  It is read for its length now,
    # and every claim the file makes is recomputed and true, so it verifies
    # ok.  A float in a row is BadFormat:
    # test_verify_non_integer_field_is_bad_format.
    obj = listed_k3_n4()
    obj["solutions"][5][1] = 3
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["counting"] == {"name": "counting", "status": "pass", "detail": ""}


@pytest.mark.parametrize("change", ["row-dropped", "row-added"])
def test_listed_certificate_with_a_row_count_other_than_m_is_bad_format(
    change, tmp_path, capsys
):
    # such a list failed counting with "solution hash mismatch" (exit 1)
    obj = listed_k3_n4()
    if change == "row-dropped":
        del obj["solutions"][5]
    else:
        obj["solutions"].append([0, 0, 0])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    want = "M 12 != solution count " + ("11" if change == "row-dropped" else "13")
    assert want in err["message"]


def test_hashed_certificate_of_version_1_verifies(capsys):
    for flags, deep in (([], "skipped"), (["--deep"], "pass")):
        assert run(["verify", str(HASHED_K3_N4), "--json", *flags]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert {c["status"] for c in checks.values()} == {"pass", deep}
        assert checks["degeneration"]["status"] == deep


def test_hashed_certificate_of_version_1_is_rewritten_without_its_hash():
    # the file with only the "hash" entry of its solutions removed, which is
    # what synthesis writes today
    obj = hashed_k3_n4()
    del obj["solutions"]["hash"]
    want = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    assert Certificate.from_json_dict(hashed_k3_n4()).to_json_bytes() == want
    assert want == synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_bytes()


def test_hashed_certificate_with_its_hash_changed_verifies(tmp_path, capsys):
    # the hash is ignored: every claim the file makes is recomputed and true
    obj = hashed_k3_n4()
    obj["solutions"]["hash"] = "0" * 64
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    for flags in ([], ["--deep"]):
        assert run(["verify", str(path), "--json", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]


def test_verify_bad_certificate_format(tmp_path, capsys):
    path = tmp_path / "noncert.json"
    path.write_text(json.dumps({"hello": 1}))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"


@pytest.mark.parametrize(
    "field, value",
    [("M", 12.5), ("n", 4.9), ("c", 1.25), ("solutions", 0.5), ("M", True),
     ("n", "4")],
)
def test_verify_non_integer_field_is_bad_format(field, value, tmp_path, capsys):
    # K3 at n = 4; each of these verified ok while fields went through int()
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    if field == "c":
        obj["c"][1][0] = value
    elif field == "solutions":  # a row of a listed version-1 file
        obj = listed_k3_n4()
        obj["solutions"][3][0] = value
    else:
        obj[field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert "must be an integer" in err["message"] or "integers only" in err["message"]


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_verify_repeated_key_is_bad_format(case, tmp_path, capsys):
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(repeat_key(obj, case)))
    for flags in ([], ["--deep"]):
        assert run(["verify", str(path), *flags]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "BadFormat"
        assert REPEATED_KEYS[case][2] in err["message"]


def test_verify_reversed_quad_key_is_bad_format(tmp_path, capsys):
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(reverse_quad(obj)))
    for flags in ([], ["--deep"]):
        assert run(["verify", str(path), *flags]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "BadFormat"
        assert REVERSED_QUAD[3] in err["message"]


def test_connectivity_repeated_vertex_is_bad_format(tmp_path, capsys):
    obj = cycle_hypergraph(3).to_json_dict()
    obj["edges"][0]["vertices"] = [1, 1, 2]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    assert run(["connectivity", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert "edge 0 vertices repeat 1" in err["message"]


def test_certify_unwritable_out_exit_3(k3_file, tmp_path, capsys):
    out = tmp_path / "missing" / "x.cert"
    assert run(["certify", k3_file, "--n", "4", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "Error"
    assert err["message"].startswith(f"cannot write {out}: ")
    assert not out.exists()


@pytest.mark.parametrize("old", [b"x" * 10**5, b"{}"], ids=["longer", "shorter"])
def test_certify_out_over_an_existing_file_leaves_the_certificate(
    old, k3_file, tmp_path
):
    out = tmp_path / "x.cert"
    out.write_bytes(old)
    assert run(["certify", k3_file, "--n", "4", "--out", str(out)]) == 0
    cert = synthesize_certificate(cycle_hypergraph(3), 4).to_json_bytes()
    assert len(cert) < 10**5
    assert out.read_bytes() == cert


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_certify_out_to_dev_null_exits_0(k3_file, capsys):
    assert run(["certify", k3_file, "--n", "4", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out.startswith("wrote /dev/null: M=12")


def test_certify_out_naming_a_directory_exit_3(k3_file, tmp_path, capsys):
    assert run(["certify", k3_file, "--n", "4", "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "Error"
    assert err["message"].startswith(f"cannot write {tmp_path}: ")


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_certify_out_creates_its_file_with_mode_0o666_less_umask(k3_file, tmp_path):
    out = tmp_path / "x.cert"
    old = os.umask(0o027)
    try:
        assert run(["certify", k3_file, "--n", "4", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_certify_out_never_opens_with_o_trunc(k3_file, tmp_path, monkeypatch):
    # truncate-then-rewrite makes ext4 start writeback at close
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(ghzcert.cli.os, "open", recording_open)
    out = tmp_path / "x.cert"
    for _ in range(2):  # creating the file, then writing over it
        assert run(["certify", k3_file, "--n", "4", "--out", str(out)]) == 0
    assert len(flags) == 2
    assert not any(f & os.O_TRUNC for f in flags)


def test_hypergraph_with_non_integer_vertex_is_bad_format(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"k": 3, "edges": [{"vertices": [1, 2.5]}]}))
    assert run(["connectivity", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["code"] == "BadFormat"


def test_verify_dependent_pivots_exit_1(tmp_path, capsys):
    cert = synthesize_certificate(cycle_hypergraph(4), 3, seed=0)
    obj = cert.to_json_dict()
    obj["c"][2:] = [[1, 1], [2, 2]]
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["counting"]["status"] == "fail"
    assert "NotGeneralPosition" in checks["counting"]["detail"]


# Byte-exact outputs, captured before cuts moved from bipartition enumeration
# to max-flow; the witness side and path order must not change.
GOLDEN_K3 = {
    ("connectivity",): (
        "lambda = 2\n"
        "min cut: side [1] crossing edges [0, 2]\n"
        "min cut rank = 4 (side [1], crossing [0, 2])\n"
    ),
    ("rate",): "lambda=2, rate: 1/2 copies per GHZ (2 GHZ per copy)\n",
    ("epr", "--a", "1", "--b", "2"): (
        "t = 2\n"
        "rate: 1/2 EPR per copy\n"
        "path: edges [0]\n"
        "path: edges [2, 1]\n"
    ),
}

H16_EDGES = [
    [1, 2, 3], [3, 4, 5], [5, 6, 7], [7, 8, 9], [9, 10, 11], [11, 12, 13],
    [13, 14, 15], [1, 15, 16], [1, 5, 14], [5, 7, 13, 16], [4, 10, 12],
    [3, 5, 13, 16], [9, 15], [2, 5, 12, 16], [8, 11], [4, 6, 7, 15],
    [7, 8, 9, 14], [1, 9, 13, 16],
]
GOLDEN_H16_CONNECTIVITY_JSON = (
    '{"lambda": 2, "min_cut": {"crossing": [4, 10], "rank": 4, '
    '"side": [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16]}, '
    '"min_cut_rank": 4, "weighted_min_cut": {"crossing": [4, 10], "rank": 4, '
    '"side": [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16]}}\n'
)


# Byte-exact `gpor` outputs, captured while the command still ran its own
# general-position check on the representation find_gpor returned.
GOLDEN_GPOR = {
    ("K3",): (
        "lambda = 2, d = 1\nc[0] = [1]\nc[1] = [1]\nc[2] = [1]\nverified: ok\n"
    ),
    ("K3", "--json"): (
        '{"d": 1, "dependent_subsets": [], "lambda": 2, "ok": true, '
        '"orthogonality_violations": [], "vectors": [[1], [1], [1]], '
        '"zero_vectors": []}\n'
    ),
    ("C6",): (
        "lambda = 2, d = 4\n"
        "c[0] = [1, 0, 0, 0]\n"
        "c[1] = [1, 1, 0, 0]\n"
        "c[2] = [0, 1, 1, 0]\n"
        "c[3] = [0, 0, 1, 1]\n"
        "c[4] = [0, 0, 0, 1]\n"
        "c[5] = [-1, 1, -1, 1]\n"
        "verified: ok\n"
    ),
    ("C6", "--json"): (
        '{"d": 4, "dependent_subsets": [], "lambda": 2, "ok": true, '
        '"orthogonality_violations": [], "vectors": [[1, 0, 0, 0], [1, 1, 0, 0], '
        '[0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1], [-1, 1, -1, 1]], '
        '"zero_vectors": []}\n'
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_GPOR), ids="-".join)
def test_gpor_transcripts_byte_exact(case, tmp_path, capsys):
    name, *flags = case
    h = {"K3": cycle_hypergraph(3), "C6": cycle_hypergraph(6)}[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["gpor", str(path), *flags]) == 0
    assert capsys.readouterr().out == GOLDEN_GPOR[case]


def test_gpor_checks_its_representation_once(k3_file, monkeypatch, capsys):
    # find_gpor returns only a representation that passed the check, so the
    # command reports that check instead of running it again
    calls = []
    verify = ghzcert.gpor.verify_orthrep

    def counting_verify(rep):
        calls.append(rep)
        return verify(rep)

    monkeypatch.setattr(ghzcert.gpor, "verify_orthrep", counting_verify)
    monkeypatch.setattr(ghzcert.cli, "verify_orthrep", counting_verify, raising=False)
    assert run(["gpor", k3_file]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", sorted(GOLDEN_K3))
def test_readme_k3_transcripts_byte_exact(command, k3_file, capsys):
    assert run([command[0], k3_file, *command[1:]]) == 0
    assert capsys.readouterr().out == GOLDEN_K3[command]


def test_connectivity_json_byte_exact_16_vertices(tmp_path, capsys):
    path = tmp_path / "h16.json"
    path.write_text(json.dumps(hypergraph(16, H16_EDGES).to_json_dict()))
    assert run(["connectivity", str(path), "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN_H16_CONNECTIVITY_JSON


@pytest.mark.parametrize(
    "a, b, error",
    [
        ("1", "99", {"code": "VertexOutOfRange",
                     "message": "vertex 99, outside 1..3"}),
        ("0", "2", {"code": "VertexOutOfRange",
                    "message": "vertex 0, outside 1..3"}),
        ("2", "2", {"code": "SameVertex",
                    "message": "vertices must differ, got 2 twice"}),
    ],
)
def test_epr_bad_vertices_exit_3(a, b, error, k3_file, capsys):
    assert run(["epr", k3_file, "--a", a, "--b", b]) == 3
    assert json.loads(capsys.readouterr().err) == error


# sha256 of the concatenated `verify --json --deep` stdout over the honest
# certificate (seed 0) and four one-field tampers of each instance below.
# Statuses and exit codes are those of the grid-sweeping verifier.  Two
# details changed: that of exponent_sign, to "follows from completeness,
# which failed", when that check came to be derived from completeness; and
# that of counting, which dropped "; listed solutions differ from the true
# set" when certificates stopped listing their solutions, and then
# "solution hash mismatch" when they stopped carrying the hash.  K3 with g
# moved by one has 12 solutions, as before, so its counting check passes
# since then; completeness still fails it.
GOLDEN_VERIFY_INSTANCES = [
    (cycle_hypergraph(3), 4),
    (cycle_hypergraph(5), 3),
    (complete_uniform(4, 2), 3),
    (cycle_hypergraph(6), 4),
]
GOLDEN_VERIFY_SHA256 = (
    "3af8e37e3317936ffed7f6f8f885e4f1cfd9ccf463696801d0937f06f4ebd456"
)


def _tampered(obj: dict) -> list[tuple[str, dict]]:
    """The certificate itself, then M (with the solution count, which must
    agree with it), c, g and one assignment term moved."""
    out = [("honest", obj)]
    for kind in ("M", "c", "g", "assignment"):
        bad = json.loads(json.dumps(obj))
        if kind == "M":
            set_m(bad, bad["M"] + 1)
            bad["solutions"]["count"] = bad["M"]
        elif kind == "c":
            bad["c"][0][0] += 1
        elif kind == "g":
            bad["g"][0] += 1
        else:
            bad["assignment"]["vertices"][0]["quad"][0][2] += 1
        out.append((kind, bad))
    return out


def test_verify_deep_reports_golden(tmp_path, capsys):
    blob = hashlib.sha256()
    for h, n in GOLDEN_VERIFY_INSTANCES:
        obj = synthesize_certificate(h, n, seed=0).to_json_dict()
        for kind, cert in _tampered(obj):
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(cert))
            rc = run(["verify", str(path), "--json", "--deep"])
            assert rc == (0 if kind == "honest" else 1), (h, n, kind)
            blob.update(capsys.readouterr().out.encode())
    assert blob.hexdigest() == GOLDEN_VERIFY_SHA256


def _lower_first_const(obj: dict) -> None:
    obj["assignment"]["vertices"][0]["const"] -= 1


def _zero_every_share(obj: dict) -> None:
    for row in obj["assignment"]["vertices"]:
        row.update(quad=[], lin=[], const=0)


@pytest.mark.parametrize(
    "tamper, detail",
    [
        (_lower_first_const, "NegativeExponentError: entry ((0, 3), (0, 1), (1, 3)) "
         "carries eps^-1; leading term undefined"),
        (_zero_every_share, "GhzStructureError: label (0, 0) repeats at vertex 1"),
    ],
    ids=["const_lowered", "shares_zeroed"],
)
def test_verify_deep_names_the_entry_or_label_that_fails(tamper, detail, tmp_path, capsys):
    # K3 at n = 4: the deep check's detail names the first negative entry in
    # grid order, or the first label that repeats at the first such vertex
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    tamper(obj)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--json", "--deep"]) == 1
    completeness = "aggregate coefficients differ from the square expansion"
    assert json.loads(capsys.readouterr().out) == {
        "checks": [
            {"detail": "", "name": "orthogonal_representation", "status": "pass"},
            {"detail": "", "name": "decodability", "status": "pass"},
            {"detail": completeness, "name": "completeness", "status": "fail"},
            {"detail": "follows from completeness, which failed",
             "name": "exponent_sign", "status": "fail"},
            {"detail": "", "name": "injectivity", "status": "pass"},
            {"detail": "", "name": "counting", "status": "pass"},
            {"detail": detail, "name": "degeneration", "status": "fail"},
        ],
        "ok": False,
    }


@pytest.mark.parametrize(
    "field, value, message",
    [("log2_M", 100.0, "achieved_rate.log2_M 100.0 != log2(M)"),
     ("bound_rate", 7, "bound_rate 7 != lambda 2")],
)
def test_verify_rate_other_than_its_counts_is_bad_format(
    field, value, message, tmp_path, capsys
):
    # K3 at n = 4 stating log2_M 100 and bound_rate 7 verified ok
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    if field == "log2_M":
        obj["achieved_rate"]["log2_M"] = value
    else:
        obj[field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert message in err["message"]


def test_verify_huge_k_is_rejected_quickly(tmp_path, capsys):
    # K3 at n = 4 claiming k = 200,000 took 1.8 s, one rank per vertex
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    obj["hypergraph"]["k"] = 10**7
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert run(["verify", str(path), "--json", "--deep"]) == 1
    assert time.perf_counter() - start < 1.0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert "(4..10000000)" in checks["decodability"]["detail"]


@pytest.mark.parametrize(
    "version", [[7], 2, "2", None], ids=["list", "int", "string-2", "missing"]
)
def test_verify_version_other_than_1_is_bad_format(version, tmp_path, capsys):
    # K3 at n = 4 with each of these verified ok; [7] re-serialized as "[7]"
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert 'version must be the string "1"' in err["message"]


@pytest.mark.parametrize("command", ["connectivity", "verify"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"[" * 200_000 + b"]" * 200_000, b'{"k": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "nested-200000-deep", "integer-5000-digits"],
)
def test_unreadable_json_is_bad_json(command, content, tmp_path, capsys):
    # each raised UnicodeDecodeError, RecursionError or ValueError out of run()
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run([command, str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadJson"
    assert "is not valid JSON" in err["message"]


# -- one parser serves every call of run() in a process ----------------------


def test_verify_deep_at_the_grid_cap_fits_320_mb(tmp_path):
    # C6 at n = 10: the grid is 10^6 = DEEP_GRID_LIMIT, the largest one the
    # deep check runs on; a dict of n^l keys needed about 640 MB here
    resource = pytest.importorskip("resource")
    cap = 320 << 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    h = cycle_hypergraph(6)
    assert 10**h.l == DEEP_GRID_LIMIT
    path = tmp_path / "c6.json"
    path.write_bytes(synthesize_certificate(h, 10, seed=0).to_json_bytes())
    done = subprocess.run(
        [sys.executable, "-m", "ghzcert.cli", "verify", str(path), "--deep", "--json"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
        preexec_fn=limit_address_space,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    checks = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
    assert checks["degeneration"] == {"name": "degeneration", "status": "pass", "detail": ""}


def test_reused_parser_forgets_deep(k3_file, tmp_path, capsys):
    path = str(tmp_path / "cert.json")
    assert run(["certify", k3_file, "--n", "4", "--out", path]) == 0
    assert run(["verify", path, "--deep", "--json"]) == 0
    assert run(["verify", path, "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = {c["name"]: c for c in json.loads(out[-1])["checks"]}
    assert checks["degeneration"]["status"] == "skipped"
    assert checks["degeneration"]["detail"] == "deep=False"


def test_reused_parser_forgets_seed(k3_file, capsys):
    assert run(["certify", k3_file, "--n", "4", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert run(["certify", k3_file, "--n", "4", "--seed", "5"]) == 0
    assert capsys.readouterr().out != first
    assert run(["certify", k3_file, "--n", "4"]) == 0
    assert capsys.readouterr().out == first


def test_reused_parser_survives_usage_error(k3_file, capsys):
    with pytest.raises(SystemExit) as err:
        run(["certify", k3_file])  # --n is required
    assert err.value.code == 2
    capsys.readouterr()
    assert run(["rate", k3_file]) == 0
    assert capsys.readouterr().out == GOLDEN_K3[("rate",)]


def test_reused_parser_forgets_json(k3_file, capsys):
    assert run(["connectivity", k3_file, "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert run(["connectivity", k3_file]) == 0
    assert capsys.readouterr().out == GOLDEN_K3[("connectivity",)]


# -- connectivity, rate and epr: outputs and max-flow work --------------------


# Benchmark-shaped instances: k vertices, k + 2 edges of 3 vertices (a few of
# 2) spanning them.  Two more repeat the k = 10 edges, at levels 2, 3, 4 in
# turn and all at level 3.
CUTS_INSTANCES = {
    8: [[1, 2, 8], [2, 4, 5], [2, 3, 6], [1, 2, 4], [2, 4, 5], [3, 4, 6],
        [4, 5], [1, 2, 5], [4, 5, 8], [4, 6, 7]],
    9: [[6, 7, 9], [1, 2, 5], [4, 5, 6], [2, 4, 9], [5, 7, 9], [5, 6, 9],
        [3, 7, 9], [1, 6, 8], [1, 3, 5], [1, 2, 4], [2, 6, 9]],
    10: [[2, 3, 4], [3, 5, 9], [2, 8], [6, 7, 10], [1, 7, 8], [1, 4, 7],
         [5, 6, 10], [1, 9, 10], [2, 3, 7], [3, 4, 5], [3, 9, 10], [1, 5, 9]],
    11: [[3, 5, 7], [6, 9, 11], [3, 6, 7], [1, 7, 10], [3, 5, 8], [7, 9, 11],
         [2, 3, 8], [1, 2, 4], [2, 6, 11], [7, 8, 9], [5, 6, 9], [4, 6, 7],
         [1, 5, 10]],
    12: [[7, 8, 10], [1, 9, 11], [1, 5, 7], [4, 8, 11], [9, 10, 11],
         [8, 9, 12], [1, 5, 11], [5, 7, 11], [5, 7], [6, 10, 12], [4, 5, 9],
         [2, 4, 8], [3, 4, 8], [1, 2, 8]],
    13: [[4, 11, 12], [3, 4, 11], [3, 10, 11], [1, 9, 10], [2, 10, 11],
         [2, 5, 8], [2, 9, 10], [1, 2, 12], [3, 4, 7], [2, 10, 13],
         [2, 10, 12], [4, 10, 13], [3, 6, 9], [3, 8, 13], [1, 8, 12]],
    14: [[6, 10], [6, 7, 8], [2, 4, 13], [3, 8, 10], [5, 12, 13], [2, 4, 14],
         [3, 11, 14], [5, 12, 13], [9, 11, 13], [1, 6, 7], [1, 5, 8],
         [2, 5, 9], [3, 4, 5], [8, 9, 13], [2, 6, 10], [3, 11, 12]],
    15: [[1, 8, 12], [3, 10, 14], [2, 7, 9], [10, 11, 15], [1, 4, 14],
         [5, 10, 15], [3, 7, 9], [8, 11, 12], [7, 12, 15], [6, 11, 13],
         [2, 14, 15], [1, 3, 15], [3, 4, 8], [6, 12, 13], [4, 8, 13],
         [4, 6, 7], [2, 5, 14]],
    16: [[1, 2, 6], [1, 6, 11], [2, 13, 15], [2, 3, 13], [1, 3, 5],
         [8, 12, 15], [6, 10, 15], [1, 5, 11], [2, 9, 14], [1, 3, 12],
         [4, 10, 13], [1, 11], [1, 9, 10], [9, 14, 16], [6, 7, 9],
         [7, 13, 14], [7, 8, 13], [4, 5, 6]],
}


def _cuts_instance(name):
    edges = CUTS_INSTANCES[10]
    if name == "k10-mixed":
        return hypergraph(10, edges, [2 + i % 3 for i in range(len(edges))])
    if name == "k10-level3":
        return hypergraph(10, edges, [3] * len(edges))
    return hypergraph(name, CUTS_INSTANCES[name])


def _cuts_transcript(h, path, capsys) -> bytes:
    """Exit code, stdout and stderr of connectivity, rate and epr 1-k, --json."""
    path.write_text(json.dumps(h.to_json_dict()))
    f = str(path)
    out = []
    for argv in (
        ["connectivity", f, "--json"],
        ["rate", f, "--json"],
        ["epr", f, "--a", "1", "--b", str(h.k), "--json"],
    ):
        rc = run(argv)
        captured = capsys.readouterr()
        out.append(f"{rc}\n{captured.out}{captured.err}")
    return "".join(out).encode()


# sha256 of _cuts_transcript, captured before connectivity and rate derived
# the weighted cut and the rank from lambda
GOLDEN_CUTS_SHA256 = {
    8: "2f2730d64be35652c64efbce3a53ea4c2d910d827d59fc616fc7acdc0ad69d93",
    9: "c317475fc2d1196dbf4c38d37387d78f4c5f4d83a747dffeca0cb541ae3f7462",
    10: "98aa8e088a032b6cbbe2e6b35b76ec91b9590523a125306c16963f050445c0c3",
    11: "a8e12bab9840ef9d01cd1f8a44f10791178eb9154f52abcf3967282bfc09ed95",
    12: "9ce2a2189f0485081aaade01c53512270c994e9d3cd9d15b636ed1920af9755b",
    13: "89d8ccd67c3d5017e18ed7a9bc03c3cbab7fcdf174ba92a995f65711297818b0",
    14: "9a269a4215aae2c77f0c34949a5b263e8177054e93fd64b72eb776304ca2feb3",
    15: "cb455537fa72fd903cae894c4a4bd993ed6879be7fd34f357a5a9c5c43322bc6",
    16: "c02278089b746daeb4b598f1c09f7a7c5c1ea90c26e1d5acd9820cddb8265ac1",
    "k10-mixed": "dc68ee97b82729e362a7a6c0c6c3a51f321e645358956083c77ca884879ed977",
    "k10-level3": "572304afadb946368db66ddf4ea1e958f1c5dbbf82cb9563121920cbc9e58dbd",
}


@pytest.mark.parametrize("name", list(GOLDEN_CUTS_SHA256))
def test_cuts_transcripts_byte_exact(name, tmp_path, capsys):
    transcript = _cuts_transcript(_cuts_instance(name), tmp_path / "h.json", capsys)
    assert hashlib.sha256(transcript).hexdigest() == GOLDEN_CUTS_SHA256[name]


@pytest.mark.parametrize(
    "name, command, flows",
    [
        (name, command, flows * (2 if name == "k10-mixed" else 1))
        for name in (8, 12, 16, "k10-level3", "k10-mixed")
        for command, flows in (("connectivity", 2), ("rate", 1))
    ],
)
def test_equal_levels_cut_once(command, flows, name, tmp_path, monkeypatch):
    # with equal levels the weighted cut is the lambda cut and the rank is
    # L^lambda: connectivity and rate each scan once, at most k - 1 flows
    # (connectivity is held to twice that); unequal levels take as many
    # flows again on level capacities, and no bipartition is enumerated
    h = _cuts_instance(name)
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    # ghzcert.hypergraph is the function hypergraph(), not the module
    module = importlib.import_module("ghzcert.hypergraph")
    flow = module._max_flow
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return flow(*args, **kwargs)

    monkeypatch.setattr(module, "_max_flow", counted)
    assert run([command, str(path), "--json"]) == 0
    assert len(calls) <= flows * (h.k - 1)


# -- every report, byte for byte, and how run() prints it ---------------------


# Byte-exact outputs no golden above covers, captured while each command
# still printed its own report.  The certify lines name the --out path as
# given, so it is relative to the test's working directory.
GOLDEN_CERTIFY_OUT = {
    ("K3", "4"): "wrote cert.json: M=12, rate 1.7925 of bound 2\n",
    ("K3", "4", "--json"): (
        '{"M": 12, "achieved_rate": 1.792481250360578, "bound_rate": 2, '
        '"out": "cert.json"}\n'
    ),
    ("C6", "6"): "wrote cert.json: M=10, rate 1.2851 of bound 2\n",
    ("C6", "6", "--json"): (
        '{"M": 10, "achieved_rate": 1.2850972089384687, "bound_rate": 2, '
        '"out": "cert.json"}\n'
    ),
}
GOLDEN_VERIFY_TEXT = {
    "honest": (
        0,
        "orthogonal_representation  pass\n"
        "decodability               pass\n"
        "completeness               pass\n"
        "exponent_sign              pass\n"
        "injectivity                pass\n"
        "counting                   pass\n"
        "degeneration               skipped  (deep=False)\n",
    ),
    "g": (
        1,
        "orthogonal_representation  pass\n"
        "decodability               pass\n"
        "completeness               fail  (aggregate coefficients differ from "
        "the square expansion)\n"
        "exponent_sign              fail  (follows from completeness, which "
        "failed)\n"
        "injectivity                pass\n"
        "counting                   pass\n"
        "degeneration               skipped  (deep=False)\n",
    ),
}
GOLDEN_K3_JSON = {
    ("rate",): (
        '{"ghz2_per_copy": 2.0, "lambda": 2, "min_cut_rank": 4, '
        '"uniform_level_2": true}\n'
    ),
    ("epr", "--a", "1", "--b", "2"): (
        '{"a": 1, "b": 2, "paths": [[0], [2, 1]], "rate": "1/2", "t": 2}\n'
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CERTIFY_OUT), ids="-".join)
def test_certify_out_reports_byte_exact(case, tmp_path, monkeypatch, capsys):
    name, n, *flags = case
    h = {"K3": cycle_hypergraph(3), "C6": cycle_hypergraph(6)}[name]
    monkeypatch.chdir(tmp_path)
    Path("h.json").write_text(json.dumps(h.to_json_dict()))
    assert run(["certify", "h.json", "--n", n, "--out", "cert.json", *flags]) == 0
    assert capsys.readouterr() == (GOLDEN_CERTIFY_OUT[case], "")
    blob = synthesize_certificate(h, int(n), seed=0).to_json_bytes()
    assert Path("cert.json").read_bytes() == blob


@pytest.mark.parametrize("case", sorted(GOLDEN_CERTIFY_OUT), ids="-".join)
def test_certify_stdout_is_the_certificate_bytes(case, tmp_path, capsysbinary):
    # the same instances without --out: with or without --json, stdout holds
    # the canonical bytes of the certificate and nothing else
    name, n, *flags = case
    h = {"K3": cycle_hypergraph(3), "C6": cycle_hypergraph(6)}[name]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["certify", str(path), "--n", n, *flags]) == 0
    blob = synthesize_certificate(h, int(n), seed=0).to_json_bytes()
    assert capsysbinary.readouterr() == (blob, b"")


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_certify_prints_to_a_text_only_stdout(flags, k3_file):
    # a stdout with no byte buffer under it takes the certificate as text
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["certify", k3_file, "--n", "4", *flags]) == 0
    blob = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_bytes()
    assert out.getvalue() == blob.decode()


def _k3_n4_certificate(tmp_path, kind: str) -> str:
    """K3 at n = 4, honest or with g moved by one, written to a file."""
    obj = synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_dict()
    if kind == "g":
        obj["g"] = [obj["g"][0] + 1]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("kind", sorted(GOLDEN_VERIFY_TEXT))
def test_verify_text_byte_exact(kind, tmp_path, capsys):
    code, text = GOLDEN_VERIFY_TEXT[kind]
    assert run(["verify", _k3_n4_certificate(tmp_path, kind)]) == code
    assert capsys.readouterr() == (text, "")


def test_connectivity_text_mixed_levels_byte_exact(tmp_path, capsys):
    # C4 with levels 3, 3, 5, 5: the least-rank cut severs the two level-3
    # edges, so its side differs from the lambda cut's
    h = hypergraph(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}], [3, 3, 5, 5])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["connectivity", str(path)]) == 0
    assert capsys.readouterr().out == (
        "lambda = 2\n"
        "min cut: side [1] crossing edges [0, 3]\n"
        "min cut rank = 9 (side [1, 3, 4], crossing [0, 1])\n"
    )


@pytest.mark.parametrize("command", sorted(GOLDEN_K3_JSON))
def test_k3_json_reports_byte_exact(command, k3_file, capsys):
    assert run([command[0], k3_file, *command[1:], "--json"]) == 0
    assert capsys.readouterr() == (GOLDEN_K3_JSON[command], "")


@pytest.mark.parametrize(
    "command",
    [
        ["connectivity"],
        ["rate"],
        ["epr", "--a", "1", "--b", "3"],
        ["gpor"],
        ["certify", "--n", "4", "--out", "cert.json"],
        ["verify", "--deep"],
    ],
    ids=lambda command: command[0],
)
def test_json_report_is_one_sorted_line(command, k3_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("cert.json").write_bytes(
        synthesize_certificate(cycle_hypergraph(3), 4, seed=0).to_json_bytes()
    )
    file = "cert.json" if command[0] == "verify" else k3_file
    assert run([command[0], file, *command[1:], "--json"]) == 0
    out, err = capsys.readouterr()
    lines = out.split("\n")
    assert len(lines) == 2 and lines[1] == "" and err == ""
    assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)


@pytest.mark.parametrize("case", ["rate", "tampered"])
def test_main_exits_with_the_code_of_run(case, k3_file, tmp_path, monkeypatch, capsys):
    # the installed ghzcert script calls main(), which reads sys.argv
    if case == "rate":
        argv, code, out = ["rate", k3_file], 0, GOLDEN_K3[("rate",)]
    else:
        argv = ["verify", _k3_n4_certificate(tmp_path, "g")]
        code, out = GOLDEN_VERIFY_TEXT["g"]
    monkeypatch.setattr(sys, "argv", ["ghzcert", *argv])
    with pytest.raises(SystemExit) as exit_:
        ghzcert.cli.main()
    assert exit_.value.code == code
    assert capsys.readouterr() == (out, "")


def _closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "command, code",
    [
        (["gpor"], 0),
        (["rate", "--json"], 0),
        (["certify", "--n", "4"], 0),
        (["verify"], 1),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else None,
)
def test_a_closed_stdout_keeps_the_exit_code(command, code, k3_file, tmp_path):
    # a reader that closes stdout early changes neither the code nor stderr;
    # stdout is block-buffered, as from a shell without PYTHONUNBUFFERED
    file = _k3_n4_certificate(tmp_path, "g") if command[0] == "verify" else k3_file
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    stdout = _closed_pipe()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ghzcert.cli", command[0], file, *command[1:]],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=dict(env, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_run_survives_a_closed_stdout_in_process(k3_file, monkeypatch, capsys):
    with open(_closed_pipe(), "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        assert run(["gpor", k3_file]) == 0
    # the next call, with a stdout of its own, prints in full
    assert run(["rate", k3_file]) == 0
    assert capsys.readouterr() == (GOLDEN_K3[("rate",)], "")
