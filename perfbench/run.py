"""ramimo benchmark: trials per second, serial and all-core, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload ml-8x4 --seed 1 --seconds 55 --trace 0

The benchmark imports ramimo from ./src and drives it through
`ramimo.cli.main` in-process. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced serial run (see README.md).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `attempted` and `failed` count
sweep points, and a point fails if its invocation raised, if its CSV row
differs between serial, parallel and traced runs, or (at the default seed)
if its deterministic columns differ from reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 20260808

# share of --seconds per phase; phases are interleaved pass by pass
BUDGET = {
    0: {"serial": 0.5, "parallel": 0.5},
    1: {"serial": 0.2, "parallel": 0.45, "traced": 0.35},
}
MIN_PASSES = 3
SETUP_RUNS = 7
POOL_PROBES = 5


def _import_ramimo():
    sys.path.insert(0, str(SRC))
    try:
        import ramimo.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import ramimo from {SRC}: {exc}")
    if Path(ramimo.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: imported ramimo from {ramimo.cli.__file__}, not from {SRC}")
    return ramimo.cli


cli = _import_ramimo()

import numpy as np  # noqa: E402  (after the ramimo import check)

from tracer import MAIN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, csv_rows, deterministic_rows  # noqa: E402


def env_block(workers: int) -> dict:
    """Interpreter, numpy/BLAS build and process settings behind a result."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "workers": workers,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Checker:
    """Counts attempted and failed sweep points across every invocation."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.canonical: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, inv, text: str | None) -> None:
        self.attempted += inv.points
        if text is None:
            self.failed += inv.points
            return
        bad = set()
        if self.reference is not None:
            ref = self.reference[inv.name]
            rows = deterministic_rows(inv.csv_name, text)
            bad.update(i for i in range(inv.points)
                       if i >= len(rows) or i >= len(ref) or rows[i] != ref[i])
        canonical = self.canonical.setdefault(inv.name, text)
        if text != canonical:
            rows, canon = csv_rows(text), csv_rows(canonical)
            differing = {i for i in range(inv.points)
                         if i >= len(rows) or i >= len(canon) or rows[i] != canon[i]}
            # bytes differ outside the rows (header, comments): every point fails
            bad.update(differing or range(inv.points))
        self.failed += len(bad)


class Bench:
    def __init__(self, workload: str, seed: int, checker: Checker, out: Path):
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        self.checker = checker
        self.out = out
        self.walls = {}  # phase -> invocation name -> [seconds]
        self.passes = {}
        self.tracer = Tracer()

    def invoke(self, phase: str, inv) -> float:
        out_dir = self.out / phase / inv.name
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / inv.csv_name
        csv_path.unlink(missing_ok=True)
        argv = [*inv.argv, "--seed", str(self.seed), "--out", str(out_dir)]
        if phase != "parallel":  # parallel keeps the CLI default: one worker per core
            argv += ["--threads", "1"]
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if phase == "traced":
                    with self.tracer.patched():
                        rc = self.tracer.call(MAIN, cli.main, argv)
                else:
                    rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # counted below as failed points; the run goes on
            rc = traceback.format_exc()
        wall = perf_counter() - start
        ok = rc == 0 and csv_path.exists()
        self.checker.check(inv, csv_path.read_text(encoding="utf-8") if ok else None)
        if not ok:
            print(f"failed: {phase} {inv.name}: {rc}\n{sink.getvalue()[-500:]}", file=sys.stderr)
        return wall

    def run_pass(self, phase: str) -> float:
        walls = self.walls.setdefault(phase, {})
        total = 0.0
        for inv in self.invocations:
            wall = self.invoke(phase, inv)
            walls.setdefault(inv.name, []).append(wall)
            total += wall
        self.passes[phase] = self.passes.get(phase, 0) + 1
        return total

    def measure(self, seconds: float, shares: dict[str, float]) -> None:
        """Interleave passes of each phase until every phase used its share."""
        used = dict.fromkeys(shares, 0.0)
        while True:
            open_ = [p for p in shares
                     if self.passes.get(p, 0) < MIN_PASSES or used[p] < shares[p] * seconds]
            if not open_:
                return
            phase = min(open_, key=lambda p: used[p] / shares[p])
            used[phase] += self.run_pass(phase)

    def trials_per_s(self, phase: str) -> float:
        """Trials run in the phase over its summed invocation wall time."""
        walls = self.walls[phase]
        trials = sum(inv.trials * len(walls[inv.name]) for inv in self.invocations)
        return trials / sum(sum(w) for w in walls.values())


def _setup_argv(inv, out_dir: Path) -> list[str]:
    """The invocation cut to the first trial of each point, default threads."""
    argv = list(inv.argv)
    if "--trials" in argv:
        argv[argv.index("--trials") + 1] = "1"
    if "--samples" in argv:
        argv[argv.index("--samples") + 1] = argv[argv.index("--m") + 1]
    return argv + ["--out", str(out_dir)]


def setup_seconds(workload: str, seed: int, out: Path, checker: Checker) -> float:
    """Median wall time of fresh interpreters that import ramimo and run the
    first trial of every invocation (alphabet and candidate caches, pool start).
    An interpreter that fails counts every point of the workload as failed."""
    invocations = WORKLOADS[workload]
    argvs = [_setup_argv(inv, out / "setup" / inv.name) + ["--seed", str(seed)]
             for inv in invocations]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import ramimo, ramimo.cli\n"
        f"for argv in {argvs!r}:\n"
        "    if ramimo.cli.main(argv) != 0:\n"
        "        sys.exit(1)\n"
    )
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            print(f"failed: setup: {proc.stderr[-500:]}", file=sys.stderr)
            for inv in invocations:
                checker.check(inv, None)
            break
    return statistics.median(times)


def pool_start_seconds(bench: Bench) -> float:
    """Median extra wall time of a default-threads invocation over a serial one,
    both cut to one trial per point: the process pool's start and shutdown."""
    extra = []
    for _ in range(POOL_PROBES):
        for inv in bench.invocations:
            argv = _setup_argv(inv, bench.out / "pool" / inv.name) + ["--seed", str(bench.seed)]
            walls, ok = [], True
            for threads in ([], ["--threads", "1"]):
                start = perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        ok = cli.main(argv + threads) == 0 and ok
                except Exception:  # the timed phases already counted this command line
                    ok = False
                walls.append(perf_counter() - start)
            if ok:
                extra.append(walls[0] - walls[1])
    return statistics.median(extra) if extra else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"][workload] if seed == ref["seed"] else None


def write_reference() -> None:
    """Record the deterministic columns of every workload at the default seed."""
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, invocations in WORKLOADS.items():
        bench = Bench(workload, DEFAULT_SEED, Checker(None), OUT / workload / "reference")
        entry = {}
        for inv in invocations:
            bench.invoke("serial", inv)
            text = (bench.out / "serial" / inv.name / inv.csv_name).read_text(encoding="utf-8")
            entry[inv.name] = deterministic_rows(inv.csv_name, text)
        ref["workloads"][workload] = entry
    text = json.dumps(ref, indent=1)
    # one point per line: collapse the innermost (row) lists
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json from this commit and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    seed = args.seed % (1 << 64)  # ramimo seeds are non-negative
    out = OUT / args.workload
    workers = os.cpu_count() or 1
    checker = Checker(load_reference(args.workload, seed))
    bench = Bench(args.workload, seed, checker, out)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        metrics["setup_s"] = (setup_seconds(args.workload, seed, out, checker), "s")
    bench.run_pass("warmup")  # fills ramimo's alphabet and candidate caches
    bench.measure(args.seconds, BUDGET[args.trace])
    serial = bench.trials_per_s("serial")
    parallel = bench.trials_per_s("parallel")
    failed_frac = checker.failed / checker.attempted
    if args.trace == 0:
        metrics["trials_per_s_serial"] = (serial, "trials/s")
        metrics["trials_per_s_parallel"] = (parallel, "trials/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        metrics.update(layer_metrics(bench.tracer.summary(), bench.passes["traced"]))
        traced = bench.trials_per_s("traced")
        metrics["montecarlo.parallel_efficiency"] = (parallel / (workers * serial), "fraction")
        metrics["montecarlo.parallel_efficiency.workers"] = (float(workers), "count")
        metrics["montecarlo.parallel_efficiency.serial_trials_per_s"] = (serial, "trials/s")
        metrics["montecarlo.parallel_efficiency.parallel_trials_per_s"] = (parallel, "trials/s")
        pool_start = pool_start_seconds(bench)
        pools = bench.passes["parallel"] * len(bench.invocations)
        parallel_wall = sum(sum(w) for w in bench.walls["parallel"].values())
        metrics["montecarlo.pool_start_s"] = (pool_start, "s")
        metrics["montecarlo.pool_start_frac"] = (pool_start * pools / parallel_wall, "fraction")
        metrics["trace.overhead_frac"] = (serial / traced - 1.0, "fraction")
        metrics["trace.traced_trials_per_s"] = (traced, "trials/s")
        metrics["failed_frac"] = (failed_frac, "fraction")

    env = env_block(workers)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": seed, "passes": bench.passes,
                   "walls_s": bench.walls, "env": env, **result}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        if name != "failed_frac":  # printed below with its counts
            print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed_frac:.6g} fraction "
          f"({checker.failed}/{checker.attempted} points)")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
