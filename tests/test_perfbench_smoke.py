"""The benchmark's own smoke test, run as part of the suite.

`perfbench/smoke.py` runs both workloads at `--trace 0` and `--trace 1` for
a second each, checks their metrics against BENCHMARK.json and their CSVs
against the reference, and checks that its gate can fail.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
