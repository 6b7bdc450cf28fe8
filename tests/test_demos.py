import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic
STDOUT_SHA256 = {
    "01_connectivity_and_rates.py":
        "32d9e582bb5ace3fb6f640a0dbb250053cbf5d6633724124f179f0e4e750892a",
    "02_orthogonal_representations.py":
        "c597e5a846743d169353736173ae5b10be1b09c7a9039ecbfe55bd8ecfe8854c",
    "03_strassen_degeneration.py":
        "6414cca050cdc17a3ccfcb8aec66b56435e42c1c7479bc9df1dc3c2efa4d5784",
    "04_certificates.py":
        "435ad3ac55d310e067cdcb01437eecb66b9f389173b9e740cd88c208e89c1f81",
    "05_epr_distillation.py":
        "683fe1ef14756aa3e6ee4bf02071bbff2e5adbe6216b5f0df3a3160e68efc5d4",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
