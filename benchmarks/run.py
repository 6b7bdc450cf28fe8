#!/usr/bin/env python3
"""Benchmark of the ghzcert command line: certify, verify and cuts.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py            # every workload, untraced and traced

One process, one closed-loop client: each command is ``ghzcert.cli.run(argv)``
on JSON files this script generated from ``--seed``.  The program is imported
from ``src/`` next to this directory, never from an installed copy.  Set-up
(input generation, and for ``verify`` the synthesis and tampering of the
certificates it reads) is repeated and its median reported.  Whole rounds run
until ``--seconds`` have passed and at least 100 commands have completed;
every output is then checked outside the timed region.  Gated times are
scaled to a reference machine speed by a calibration loop run between
commands (see ``speed.py``); wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop untraced, replays exactly the same commands with every layer wrapped
(see ``spans.py``), checks that digests and verdicts agree, prints the
per-layer metrics and writes the spans to ``benchmarks/out/``.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3  # at least, and until SETUP_SECONDS have been spent
SETUP_SECONDS = 1.0
MIN_OPS = 100

sys.path.insert(0, str(HERE))
from checks import (  # noqa: E402
    Outcome,
    check_certificate,
    check_certify_run,
    check_cut,
    check_verify,
    reference_lambda,
)
from spans import LAYERS, Tracer  # noqa: E402
from speed import Meter  # noqa: E402
from workloads import PLANS, Op, Plan, dump, tamper  # noqa: E402


def load_program():
    """Import ghzcert from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ghzcert" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {src / 'ghzcert'}")
    sys.path.insert(0, str(src))
    import ghzcert
    import ghzcert.cli

    if Path(ghzcert.__file__).resolve().parent != src / "ghzcert":
        sys.exit(f"benchmark: ghzcert imported from {ghzcert.__file__}, not {src}")
    return ghzcert


def metadata() -> dict:
    """Facts about the run that are recorded but not gated."""
    src = ROOT / "src" / "ghzcert"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


# -- running commands ----------------------------------------------------------


def execute(op: Op, run_cmd) -> Outcome:
    """Run one command in-process; only ``run_cmd`` itself is timed.

    A full collection first starts every command with the collector in the
    same state, as in a fresh process; otherwise when the collector runs
    inside a command would depend on the commands before it.
    """
    gc.collect()
    buf = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = run_cmd(list(op.argv))
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a failed operation, not a lost run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return Outcome(rc, buf.getvalue(), seconds, error, start=t0)


def run_ops(ops, run_cmd, blobs: dict, tracer=None, meter=None) -> list[Outcome]:
    outcomes = []
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        if meter is not None:
            meter.maybe_sample()
        out = execute(op, run_cmd)
        if op.kind == "certify" and out.rc == 0 and out.error is None:
            blob = Path(f"{op.key}.cert").read_bytes()
            out.digest = hashlib.sha256(blob).hexdigest()
            blobs.setdefault(op.key, blob)
        outcomes.append(out)
    return outcomes


def closed_loop(plan: Plan, seconds: float, run_cmd, blobs: dict, meter: Meter):
    """Whole rounds until ``seconds`` have passed and MIN_OPS are done."""
    ops, outcomes = [], []
    t0 = time.perf_counter()
    r = 0
    while True:
        batch = plan.round_order(r)
        outcomes += run_ops(batch, run_cmd, blobs, meter=meter)
        ops += batch
        r += 1
        if time.perf_counter() - t0 >= seconds and len(ops) >= MIN_OPS:
            meter.sample()
            return ops, outcomes


IMPORT_PROGRAM = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ghzcert, ghzcert.cli
print(t0, time.perf_counter() - t0)
"""


def import_program() -> tuple[float, float]:
    """(start, seconds) of importing the program in a fresh interpreter.

    Every command-line run pays this, and the measured loop, which imports
    once, would not show work moved into import time.  perf_counter is the
    system's monotonic clock, so the start lines up with the meter's.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROGRAM, str(ROOT / "src")],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    start, seconds = proc.stdout.split()
    return float(start), float(seconds)


def setup(workload: str, seed: int, run_cmd, meter: Meter):
    """Import the program afresh and generate the inputs in the current directory.

    Returns the plan, the rates of the synthesized certificates and the
    (start, seconds) of each timed step; calibration runs between steps.
    """
    meter.maybe_sample()
    steps = [import_program()]

    def step(fn, *args):
        meter.maybe_sample()
        t0 = time.perf_counter()
        result = fn(*args)
        steps.append((t0, time.perf_counter() - t0))
        return result

    def write_inputs():
        plan = PLANS[workload](seed)
        for name, h in plan.inputs.items():
            Path(f"{name}.json").write_text(json.dumps(h))
        return plan

    plan = step(write_inputs)
    rates = {}
    honest = {}
    for op in plan.synth:
        meter.maybe_sample()
        out = execute(op, run_cmd)
        steps.append((out.start, out.seconds))
        if out.rc != 0 or out.error:
            raise RuntimeError(f"set-up command {op.argv} failed: {out.error or out.rc}")
        res = json.loads(out.stdout)
        rates[op.key] = res["achieved_rate"] / res["bound_rate"]
        honest[op.key] = json.loads(Path(f"{op.key}.cert").read_bytes())

    def write_tampered():
        for key, kind, fname, pick in plan.tampered:
            Path(fname).write_bytes(dump(tamper(honest[key], kind, pick)))

    step(write_tampered)
    return plan, rates, steps


def snapshot() -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").iterdir())
    }


# -- checking ------------------------------------------------------------------


def guarded(check, *args) -> str | None:
    """A check that crashes on the program's output fails that operation."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output must not lose the run
        return f"output unreadable: {type(exc).__name__}: {exc}"


def evaluate(plan: Plan, ops, outcomes, blobs: dict, ghzcert) -> list[str | None]:
    """One reason per failed operation, None per correct one."""
    reasons: list[str | None] = []
    if plan.workload == "certify":
        first: dict[str, str] = {}
        cert_check: dict[str, str | None] = {}  # by digest: same bytes, same verdict
        for op, out in zip(ops, outcomes):
            why = check_certify_run(out)
            if why is None and first.setdefault(op.key, out.digest) != out.digest:
                why = "certificate bytes differ from an earlier run of the same input"
            if why is None:
                if out.digest not in cert_check:
                    n = int(op.argv[op.argv.index("--n") + 1])
                    cert_check[out.digest] = guarded(
                        check_certificate, blobs[op.key], out.stdout, n, ghzcert
                    )
                why = cert_check[out.digest]
            reasons.append(why)
    elif plan.workload == "verify":
        reasons = [guarded(check_verify, op, out) for op, out in zip(ops, outcomes)]
    else:
        lam: dict[str, int] = {}
        for op, out in zip(ops, outcomes):
            name = op.argv[1][: -len(".json")]
            if name not in lam:
                lam[name] = reference_lambda(plan.inputs[name])
            if lam[name] is None and op.kind == "connectivity" and out.rc == 0:
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    lam[name] = json.loads(out.stdout)["lambda"]
        for op, out in zip(ops, outcomes):
            name = op.argv[1][: -len(".json")]
            reasons.append(guarded(check_cut, op, out, plan.inputs[name], lam[name]))
    return reasons


def rate_fraction(plan: Plan, ops, outcomes, reasons, setup_rates: dict) -> float:
    """Mean achieved/bound rate of the certificates in play.

    certify: the certificates written; verify: the honest certificates read;
    cuts (no certificate): GHZ yield reported by ``rate`` over lambda.
    """
    if plan.workload == "verify":
        return statistics.fmean(setup_rates.values())
    fractions = {}
    for op, out, why in zip(ops, outcomes, reasons):
        if why is not None:
            continue
        res = json.loads(out.stdout)
        if op.kind == "certify":
            fractions[op.key] = res["achieved_rate"] / res["bound_rate"]
        elif op.kind == "rate":
            fractions[op.key] = res["ghz2_per_copy"] / res["lambda"]
    return statistics.fmean(fractions.values())


def fingerprint(op: Op, out: Outcome):
    """What the traced replay must reproduce: digests, verdicts, answers."""
    return out.rc, out.error, out.digest if op.kind == "certify" else out.stdout


# -- metrics -------------------------------------------------------------------


def timings(seconds: list[float], correct: list[bool], setups: list[float]) -> dict:
    """Throughput and latency of the correct commands, and set-up time."""
    lat = [s * 1e3 for s, ok in zip(seconds, correct) if ok]
    return {
        "ops_per_s": len(lat) / sum(seconds),
        "op_p50_ms": statistics.median(lat) if lat else float("nan"),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else float("nan"),
        "setup_s": statistics.median(setups),
    }


def end_to_end(plan, ops, outcomes, reasons, meter, setups, rss_mb, setup_rates):
    """The gated metrics, at the reference speed, and the same in wall time."""
    correct = [why is None for why in reasons]
    scaled = [meter.scaled(o.start, o.seconds) for o in outcomes]
    metrics = timings(scaled, correct, [sum(meter.scaled(*s) for s in steps) for steps in setups])
    metrics["peak_rss_mb"] = rss_mb
    metrics["rate_fraction"] = rate_fraction(plan, ops, outcomes, reasons, setup_rates)
    wall = timings([o.seconds for o in outcomes], correct,
                   [sum(t for _, t in steps) for steps in setups])
    return metrics, wall


def per_layer(tracer, ops, traced_s: float, overhead: float, spec_names) -> dict:
    n = len(ops)
    self_ns = tracer.self_ns()
    covered = tracer.covered_ns()
    total_self = sum(self_ns.values())
    if abs(total_self - covered) > 1e-6 * max(covered, 1) + 1000:
        raise RuntimeError(f"self times {total_self} ns do not add up to {covered} ns")
    counts = dict(tracer.counts)
    counts["protocol.cert_bytes"] = counts.get("protocol.cert_bytes", 0) + sum(
        Path(op.argv[1]).stat().st_size for op in ops if op.kind == "verify"
    )
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(
            v for k, v in self_ns.items() if k.startswith(layer + ".")
        ) / 1e6 / n
    values["harness.self_ms"] = (traced_s * 1e9 - covered) / 1e6 / n
    values["trace.wall_ms"] = traced_s * 1e3 / n
    values["trace.overhead_frac"] = overhead
    values["trace.spans"] = len(tracer.span_name) / n
    recomputed = counts.pop("protocol.checks_recomputed", 0)
    total_checks = counts.pop("protocol.checks_total", 0)
    values["protocol.checks_recomputed_frac"] = recomputed / total_checks if total_checks else 0.0
    for name in spec_names:
        if name.endswith(".self_ms") and name not in values:
            values[name] = self_ns.get(name[: -len(".self_ms")], 0) / 1e6 / n
        elif name not in values:
            values[name] = counts.get(name, 0) / n
    return values


# -- one workload --------------------------------------------------------------


def run_workload(args, spec) -> dict:
    ghzcert = load_program()
    run_cmd = ghzcert.cli.run
    meta = metadata()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    home = Path.cwd()
    try:
        os.chdir(work)
        meter = Meter()
        setups = []
        while len(setups) < SETUP_REPEATS or sum(t for s in setups for _, t in s) < SETUP_SECONDS:
            plan, setup_rates, steps = setup(args.workload, args.seed, run_cmd, meter)
            setups.append(steps)
            if len(setups) == 1:
                first = snapshot()
        if snapshot() != first:
            raise RuntimeError("set-up is not deterministic: inputs differ between repeats")
        gc.collect()
        gc.freeze()  # what set-up left behind need not be scanned again
        blobs: dict[str, bytes] = {}
        ops, outcomes = closed_loop(plan, args.seconds, run_cmd, blobs, meter)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reasons = evaluate(plan, ops, outcomes, blobs, ghzcert)
        probes = [(op, guarded(check_verify, op, execute(op, run_cmd))) for op in plan.probes]
        mismatch, wall = 0, {}
        if args.trace:
            tracer = Tracer(ghzcert)
            tracer.install()
            try:
                spent, t0 = meter.spent, time.perf_counter()
                replay = run_ops(ops, ghzcert.cli.run, {}, tracer, meter)
                traced_s = time.perf_counter() - t0 - (meter.spent - spent)
                meter.sample()
            finally:
                tracer.remove()
            mismatch = sum(
                fingerprint(op, a) != fingerprint(op, b)
                for op, a, b in zip(ops, outcomes, replay)
            )
            overhead = (
                sum(meter.scaled(o.start, o.seconds) for o in replay)
                / sum(meter.scaled(o.start, o.seconds) for o in outcomes) - 1
            )
            metrics = per_layer(
                tracer, ops, traced_s, overhead, [m["name"] for m in spec["per_layer"]]
            )
        else:
            metrics, wall = end_to_end(
                plan, ops, outcomes, reasons, meter, setups, rss_mb, setup_rates
            )
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(why is not None for why in reasons)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "rounds": len(ops) // len(plan.round),
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "traced_mismatches": mismatch,
        "failures": sorted({f"{op.key}: {why}" for op, why in zip(ops, reasons) if why}),
        "known_gaps": {op.key: why or "closed: verdict as expected" for op, why in probes},
        "digests": {op.key: out.digest for op, out in zip(ops, outcomes) if out.digest},
        "verdicts": {op.key: out.rc for op, out in zip(ops, outcomes) if op.kind == "verify"},
        "latency_ms": [  # command, wall time, time at the reference speed
            [op.key, out.seconds * 1e3, meter.scaled(out.start, out.seconds) * 1e3]
            for op, out in zip(ops, outcomes)
        ],
        "setup_repeats": len(setups),
        "metrics": metrics,
        "wall": wall,
        "calibration_ms": statistics.median(meter.ms),
    }
    if args.trace:
        record["span_count"] = tracer.write(OUT / f"spans-{tag}.tsv.gz")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def report(record: dict, spec) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    meta = record["metadata"]
    print(f"# {record['workload']} seed={record['seed']} rounds={record['rounds']} "
          f"python={meta['python']} nproc={meta['nproc']} "
          f"rev={meta['git_revision']} src_lines={meta['src_lines']}")
    print(f"{'failed_frac':<44} {record['failed_frac']:.6g} fraction "
          f"({record['failed']} of {record['attempted']})")
    for why in record["failures"][:20]:
        print(f"#   failed {why}")
    for key, why in record["known_gaps"].items():
        print(f"# known gap, not counted (ROADMAP item 1): {key}: {why}")
    if record["traced_mismatches"]:
        print(f"# traced replay disagreed on {record['traced_mismatches']} operations")
    print(f"# times at the reference speed; calibration median "
          f"{record['calibration_ms']:.4g} ms")
    for name, value in record["metrics"].items():
        print(f"{name:<44} {value:.6g} {units.get(name, '')}")
    for name, value in record["wall"].items():
        print(f"{'wall.' + name:<44} {value:.6g} {units.get(name, '')}")


def result_line(record: dict, spec) -> str:
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in spec[kind]
    }
    return json.dumps({
        "correct": record["failed"] == 0 and record["traced_mismatches"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"] + record["traced_mismatches"],
        "metrics": metrics,
    })


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    load_program()
    lines = []
    for w in PLANS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            lines.append({"workload": w, "trace": trace,
                          **json.loads(proc.stdout.strip().splitlines()[-1])})
    (OUT / "results.json").write_text(json.dumps(lines, indent=1))
    print(json.dumps({
        "correct": all(x["correct"] for x in lines),
        "attempted": sum(x["attempted"] for x in lines),
        "failed": sum(x["failed"] for x in lines),
        "runs": lines,
    }))
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(PLANS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    record = run_workload(args, spec)
    report(record, spec)
    print(result_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
