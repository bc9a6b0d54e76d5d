"""Smoke test of the benchmark itself, at tiny run lengths (about two minutes).

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json and both trace modes, that the
last output line is the result object, that it carries exactly the metrics
BENCHMARK.json names with their units, and that no point failed. Then it
checks that the gate can fail: an altered reference value, and a CSV that
differs from the first one of its command line, must count as failed points.
Last, a copy holding only BENCHMARK.json and the benchmark's files must exit
non-zero without printing a result. Exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, "perfbench/run.py", "--seconds", "1"]
DEFAULT_SEED = json.loads((ROOT / "perfbench" / "reference.json").read_text())["seed"]

problems: list[str] = []


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result_of(label: str, args: list[str]) -> dict | None:
    rc, lines = run(args)
    if rc != 0 or not lines:
        problems.append(f"{label}: exit {rc}")
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not any(line.split()[1:2] == ["failed_frac"] for line in lines[:-1]):
        problems.append(f"{label}: failed_frac not printed")
    return result


def check_workload(workload: str, trace: int) -> None:
    label = f"{workload} --trace {trace}"
    result = result_of(label, ["--workload", workload, "--seed", str(DEFAULT_SEED),
                               "--trace", str(trace)])
    if result is None:
        return
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']}/{result['attempted']} points failed")
    if trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
        problems.append(f"{label}: an end-to-end metric is not positive")


def check_gate_fails() -> None:
    """Feed the gate the phi-sweep CSV that check_workload left behind: it must
    pass as is, and fail against an altered reference or an altered first CSV."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import Checker, load_reference
    from workloads import WORKLOADS, csv_rows

    workload = "variance-512x2"
    inv = WORKLOADS[workload][0]
    csv_path = ROOT / ".perfbench_out" / workload / "serial" / inv.name / inv.csv_name
    if not csv_path.exists():
        problems.append(f"gate: no {csv_path.name} to check")
        return
    text = csv_path.read_text(encoding="utf-8")
    ref = load_reference(workload, DEFAULT_SEED)

    def failed(reference, *texts) -> int:
        checker = Checker(reference)
        for t in texts:
            checker.check(inv, t)
        return checker.failed

    if failed(ref, text):
        problems.append("gate: the recorded CSV fails against reference.json")
    altered = copy.deepcopy(ref)
    row = altered[inv.name][0]
    row[1] = repr(float(row[1]) * 1.5)  # sigma_ve_sq of the first point
    if failed(altered, text) < 1:
        problems.append("gate: altered reference not counted as a failed point")
    first = csv_rows(text)[0]["sigma_ve_sq"]
    changed = text.replace(first, repr(float(first) * 1.5), 1)
    if failed(None, text, changed) != 1:
        problems.append("gate: a CSV that differs from the first one is not one failed point")


def check_refuses_without_program() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--trace", "0"], cwd=bare)
    if rc == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"bare copy: exit {rc}, printed {lines[-1:]}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    check_gate_fails()
    check_refuses_without_program()
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
