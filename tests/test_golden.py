"""Golden CSVs: every command's output bytes, pinned at one and two workers,
and the BER commands also at three (a third decomposition into chunks).
The multi-worker runs are pinned twice: with workers that start only where
they pay for themselves (the default), and with workers that start before
the first trial (`_POOL_COST_S` = 0).

Each case runs `ramimo.cli.main` in-process on a small configuration and
compares the CSV it writes with `tests/golden/<case>.csv` byte for byte.
Golden bytes change only with a contract bump declared in CHANGES.md; to
re-record them after one, run `python tests/test_golden.py` from the repository
root with `src` on PYTHONPATH. The test suite itself never writes them.
"""

import difflib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from ramimo import montecarlo
from ramimo.cli import main

GOLDEN = Path(__file__).parent / "golden"
HALF_PI = repr(math.pi / 2)

# case name -> (argv without --out/--threads, CSV file the command writes)
CASES = {
    "ber_prss_ml_plus_half_pi": (
        ["ber", "--scheme", "prss", "--detector", "ml", "--m", "4", "--n", "2",
         "--rsr-db", "26", "--snr-db-list", "6,12", "--trials", "300",
         "--target-errors", "40", f"--phi={HALF_PI}", "--seed", "11"], "ber.csv"),
    "ber_prss_zf_minus_half_pi": (
        ["ber", "--scheme", "prss", "--detector", "zf", "--m", "16", "--n", "4",
         "--rsr-db", "30", "--snr-db-list", "8,14", "--trials", "300",
         "--target-errors", "0", f"--phi=-{HALF_PI}", "--seed", "12"], "ber.csv"),
    "ber_prss_ml_oblique": (
        ["ber", "--scheme", "prss", "--detector", "ml", "--m", "4", "--n", "2",
         "--rsr-db", "26", "--snr-db-list", "10", "--trials", "300",
         "--target-errors", "0", "--phi=0.9", "--seed", "13"], "ber.csv"),
    "ber_prss_zf_oblique": (
        ["ber", "--scheme", "prss", "--detector", "zf", "--m", "16", "--n", "4",
         "--rsr-db", "30", "--snr-db-list", "12", "--trials", "300",
         "--target-errors", "0", "--phi=0.9", "--seed", "14"], "ber.csv"),
    "ber_single_shot_ml": (
        ["ber", "--scheme", "single_shot", "--detector", "ml", "--m", "4", "--n", "2",
         "--rsr-db", "20", "--snr-db-list", "4,10", "--trials", "300",
         "--target-errors", "60", "--seed", "15"], "ber.csv"),
    "ber_rf_baseline_ml": (
        ["ber", "--scheme", "rf_baseline", "--detector", "ml", "--m", "4", "--n", "2",
         "--qam", "16", "--snr-db-list", "6,12", "--trials", "300",
         "--target-errors", "0", "--seed", "16"], "ber.csv"),
    "ber_rf_baseline_zf": (
        ["ber", "--scheme", "rf_baseline", "--detector", "zf", "--m", "16", "--n", "4",
         "--snr-db-list", "0,6", "--trials", "600", "--target-errors", "100",
         "--seed", "17"], "ber.csv"),
    "phi_sweep_default_grid": (
        ["phi-sweep", "--m", "16", "--n", "2", "--samples", "48", "--rsr-db", "30",
         "--sigma-v-sq", "0.05", "--seed", "18"], "phi_sweep.csv"),
    "phi_sweep_singular_grid": (
        ["phi-sweep", "--m", "32", "--n", "2", "--samples", "200",
         "--phi-grid", f"0,{HALF_PI},{math.pi!r},0.9,-2.5", "--seed", "19"],
         "phi_sweep.csv"),
    "rsr_sweep": (
        ["rsr-sweep", "--m", "32", "--n", "2", "--samples", "200",
         "--rsr-db-list", "15,30,45", "--sigma-v-sq-list", "0.1,0.001",
         "--seed", "20"], "rsr_sweep.csv"),
    "trace_curve_default_grid": (
        ["trace-curve", "--sigma-v-sq", "0.02", "--u-mod", "0.5"], "trace_curve.csv"),
    "trace_curve_singular_grid": (
        ["trace-curve", "--phi-grid", f"0,{HALF_PI},{math.pi!r},-0.3"], "trace_curve.csv"),
}


def _run(case: str, threads: int, out: Path) -> bytes:
    argv, csv_name = CASES[case]
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
    return (out / csv_name).read_bytes()


# BER chunks are stacked, so a third worker count pins another decomposition
RUNS = [(case, threads) for case in sorted(CASES)
        for threads in ((1, 2, 3) if case.startswith("ber_") else (1, 2))]


def _assert_golden(case: str, threads: int, out: Path) -> None:
    expected = (GOLDEN / f"{case}.csv").read_bytes()
    actual = _run(case, threads, out)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            actual.decode().splitlines(keepends=True),
            fromfile=f"golden/{case}.csv", tofile=f"threads={threads}",
        )
        pytest.fail("CSV differs from its golden copy:\n" + "".join(diff), pytrace=False)


@pytest.mark.parametrize("case,threads", RUNS)
def test_csv_matches_golden(case, threads, tmp_path):
    _assert_golden(case, threads, tmp_path)


@pytest.mark.parametrize("case,threads", [(c, t) for c, t in RUNS if t > 1])
def test_csv_matches_golden_with_workers_from_the_start(case, threads, tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)
    _assert_golden(case, threads, tmp_path)
    manifest = json.loads(next(tmp_path.glob("*.manifest.json")).read_text())
    assert manifest["workers_started"] == (0 if case.startswith("trace_curve") else threads - 1)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.csv").write_bytes(_run(name, 1, Path(tmp)))
        print(f"recorded {name}", file=sys.stderr)
