import hashlib
import json
import subprocess
import sys

import pytest

from ghzcert.cli import run
from ghzcert.hypergraph import (
    complete_uniform,
    cycle_hypergraph,
    hypergraph,
    path_hypergraph,
)
from ghzcert.protocol import synthesize_certificate


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


def test_usage_errors_exit_2(k3_file):
    with pytest.raises(SystemExit) as err:
        run(["no-such-command", k3_file])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["certify", k3_file])  # --n is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


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


@pytest.mark.parametrize("raw", ["lots", "0"])
def test_certify_bad_grid_limit_exit_3(raw, k3_file, monkeypatch, capsys):
    monkeypatch.setenv("GHZCERT_MAX_GRID", raw)
    assert run(["certify", k3_file, "--n", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadGridLimit"


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
    elif field == "solutions":
        obj["solutions"][3][0] = value
    else:
        obj[field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "BadFormat"
    assert "must be an integer" in err["message"] or "integers only" in err["message"]


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
                     "message": "edge -1 contains vertex 99, outside 1..3"}),
        ("0", "2", {"code": "VertexOutOfRange",
                    "message": "edge -1 contains vertex 0, outside 1..3"}),
        ("2", "2", {"code": "SameVertex",
                    "message": "vertices must differ, got 2 twice"}),
    ],
)
def test_epr_bad_vertices_exit_3(a, b, error, k3_file, capsys):
    assert run(["epr", k3_file, "--a", a, "--b", b]) == 3
    assert json.loads(capsys.readouterr().err) == error


# sha256 of the concatenated `verify --json --deep` stdout over the honest
# certificate (seed 0) and four one-field tampers of each instance below,
# captured before the tensor layer moved to int exponents and the verifier
# stopped sweeping the grid; the reports must not depend on either.
GOLDEN_VERIFY_INSTANCES = [
    (cycle_hypergraph(3), 4),
    (cycle_hypergraph(5), 3),
    (complete_uniform(4, 2), 3),
    (cycle_hypergraph(6), 4),
]
GOLDEN_VERIFY_SHA256 = (
    "d588126058da73c8e91d094d1210875693c8d992ea8684db7875b5e8b07040b9"
)


def _tampered(obj: dict) -> list[tuple[str, dict]]:
    """The certificate itself, then M, c, g and one assignment term moved."""
    out = [("honest", obj)]
    for kind in ("M", "c", "g", "assignment"):
        bad = json.loads(json.dumps(obj))
        if kind == "M":
            bad["M"] += 1
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
