"""Workload definitions: the ramimo CLI invocations one benchmark pass makes.

Every invocation fixes its trial count (`--target-errors 0` for `ber`, a fixed
`--samples` for the sweeps), so the work done does not depend on the draws.
A pass runs every invocation of a workload once and is repeated many times in
a run, so each run samples many process pools (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `ramimo` command line, without --seed/--threads/--out."""

    name: str
    argv: tuple[str, ...]
    csv_name: str
    points: int
    trials: int  # trials the whole invocation runs


def _ber(name, scheme, detector, m, n, qam, snr, trials, rsr_db=None):
    argv = ["ber", "--scheme", scheme, "--detector", detector,
            "--m", str(m), "--n", str(n), "--qam", str(qam),
            "--snr-db-list", ",".join(str(s) for s in snr),
            "--trials", str(trials), "--target-errors", "0"]
    if rsr_db is not None:
        argv += ["--rsr-db", str(rsr_db)]
    return Invocation(name, tuple(argv), "ber.csv", len(snr), len(snr) * trials)


ML_TRIALS = 32
VARIANCE_M = 512
VARIANCE_SAMPLES = 16 * VARIANCE_M
PHI_GRID = (-math.pi / 2, -math.pi / 4, math.pi / 4, math.pi / 2)
RSR_POINTS = 7 * 3  # rsr-sweep default RSR list x default sigma_v^2 list

_variance_trials = math.ceil(VARIANCE_SAMPLES / VARIANCE_M)

WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "ml-8x4": (
        _ber("prss-ml", "prss", "ml", 8, 4, 16, (12, 16), ML_TRIALS, rsr_db=26),
        _ber("single_shot-ml", "single_shot", "ml", 8, 4, 4, (12, 16), ML_TRIALS, rsr_db=26),
        _ber("rf_baseline-ml", "rf_baseline", "ml", 8, 4, 4, (4, 8), ML_TRIALS),
    ),
    "variance-512x2": (
        Invocation(
            "phi-sweep",
            ("phi-sweep", "--m", str(VARIANCE_M), "--n", "2", "--rsr-db", "30",
             "--sigma-v-sq", "0.1", "--phi-grid=" + ",".join(repr(p) for p in PHI_GRID),
             "--samples", str(VARIANCE_SAMPLES)),
            "phi_sweep.csv", len(PHI_GRID), len(PHI_GRID) * _variance_trials,
        ),
        Invocation(
            "rsr-sweep",
            ("rsr-sweep", "--m", str(VARIANCE_M), "--n", "2",
             "--samples", str(VARIANCE_SAMPLES)),
            "rsr_sweep.csv", RSR_POINTS, RSR_POINTS * _variance_trials,
        ),
    ),
}

# Columns that identify a point and columns whose values are fixed by the
# seed alone. `ber.csv` has no trials column; bits_total pins it exactly
# (bits_total = trials * n * log2(qam)).
KEY_COLUMNS = {
    "ber.csv": ("scheme", "detector", "snr_db"),
    "phi_sweep.csv": ("phi_rad",),
    "rsr_sweep.csv": ("rsr_db", "sigma_v_sq"),
}
DETERMINISTIC_COLUMNS = {
    "ber.csv": ("bit_errors", "bits_total", "seed"),
    "phi_sweep.csv": ("sigma_ve_sq", "samples", "seed"),
    "rsr_sweep.csv": ("sigma_ve_sq", "samples", "seed"),
}


def csv_rows(text: str) -> list[dict[str, str]]:
    """Parse a ramimo CSV, skipping its `#` comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def deterministic_rows(csv_name: str, text: str) -> list[list[str]]:
    """Key and deterministic columns of every point, in CSV order."""
    cols = KEY_COLUMNS[csv_name] + DETERMINISTIC_COLUMNS[csv_name]
    return [[row.get(c, "") for c in cols] for row in csv_rows(text)]
