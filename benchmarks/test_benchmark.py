"""Tests of the benchmark itself: python3 -m pytest benchmarks"""

import json

import pytest

import run
from checks import Outcome, check_verify, lambda_by_removal
from speed import REF_MS, Meter
from workloads import PLANS, TAMPERS, Op, cycle, dump, spanning_random, tamper


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_same_seed_gives_same_operation_stream(workload):
    a, b = PLANS[workload](7), PLANS[workload](7)
    assert a == b
    assert [a.round_order(r) for r in range(3)] == [b.round_order(r) for r in range(3)]
    other = PLANS[workload](8)
    assert (other.inputs, other.round_order(0)) != (a.inputs, a.round_order(0))


def test_tampered_certificate_verified_ok_counts_as_failed():
    op = Op("verify", "K3-n3-s0.M", ("verify", "x.cert", "--json"), expect_ok=False)
    said_ok = Outcome(0, json.dumps({"ok": True, "checks": []}), 0.001)
    said_fail = Outcome(1, json.dumps({"ok": False, "checks": []}), 0.001)
    assert check_verify(op, said_ok) is not None
    assert check_verify(op, said_fail) is None
    honest = Op("verify", "K3-n3-s0.honest", op.argv, expect_ok=True)
    assert check_verify(honest, said_ok) is None
    assert check_verify(honest, said_fail) is not None


@pytest.fixture
def program(tmp_path, monkeypatch):
    ghzcert = run.load_program()
    monkeypatch.chdir(tmp_path)
    return ghzcert


@pytest.mark.parametrize("name,h", [("K3", cycle(3)), ("full3", {"k": 3, "edges": [{"vertices": [1, 2, 3]}]})])
def test_every_tamper_is_rejected_on_a_small_grid(program, name, h):
    with open(f"{name}.json", "w") as fh:
        json.dump(h, fh)
    synth = Op("certify", f"{name}-n3", ("certify", f"{name}.json", "--n", "3", "--out", f"{name}-n3.cert", "--json"))
    assert run.execute(synth, program.cli.run).rc == 0
    cert = json.loads(open(f"{name}-n3.cert", "rb").read())
    for kind in TAMPERS:
        with open(f"{kind}.cert", "wb") as fh:
            fh.write(dump(tamper(cert, kind, 1)))
        op = Op("verify", kind, ("verify", f"{kind}.cert", "--json", "--deep"), kind == "honest")
        assert check_verify(op, run.execute(op, program.cli.run)) is None, kind


def test_a_verifier_that_accepts_everything_fails_every_tamper(program):
    def accept_all(argv):
        deep = {"name": "degeneration", "status": "pass", "detail": ""}
        print(json.dumps({"ok": True, "checks": [deep]}))
        return 0

    ops = [o for o in PLANS["verify"](1).round if o.key.startswith("K3-n2-")]
    reasons = [check_verify(o, run.execute(o, accept_all)) for o in ops]
    assert [r is None for r in reasons] == [o.expect_ok for o in ops]
    assert sum(r is not None for r in reasons) == 4


def test_removal_oracle_on_spanning_hypergraphs():
    import random

    assert lambda_by_removal(cycle(5)) == 2
    rng = random.Random(3)
    for k in range(8, 11):
        h = spanning_random(rng, k, k + 2)
        assert len(h["edges"]) == k + 2
        degree = min(sum(v in e["vertices"] for e in h["edges"]) for v in range(1, k + 1))
        assert 1 <= lambda_by_removal(h) <= degree


def test_known_gaps_are_probes_outside_the_round():
    plan = PLANS["verify"](5)
    assert [o.key for o in plan.probes] == ["K4^3-n32-s35.M"]
    assert all(o.expect_ok is False for o in plan.probes)
    assert not {o.key for o in plan.probes} & {o.key for o in plan.round}
    # the rest of that certificate's tamper set stays in the round
    assert sum(o.key.startswith("K4^3-n32-") for o in plan.round) == len(TAMPERS) - 1


def test_scaled_time_follows_the_calibration_around_a_command():
    meter = Meter()
    meter.at, meter.ms = [1.0, 2.0, 3.0], [REF_MS, 2 * REF_MS, 4 * REF_MS]
    assert meter.scaled(1.5, 0.1) == pytest.approx(0.1 * 2 / 3)  # mean of 1x and 2x
    assert meter.scaled(2.5, 0.1) == pytest.approx(0.1 / 3)  # mean of 2x and 4x
    assert meter.scaled(0.5, 0.1) == pytest.approx(0.1)  # before the first sample
