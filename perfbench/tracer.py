"""Span tracer for one traced serial run, recorded from outside the package.

`Tracer.patched()` replaces, for the duration of a `with` block, the public
functions that `ramimo.montecarlo` calls (looked up by name at call time), the
sweep drivers that `ramimo.cli` calls, and the two trial functions. Each call
becomes a span `(id, parent_id, name, start_ns, end_ns)` kept in memory; a
layer's self time is its spans' duration minus the part covered by child
spans. Detector spans also record kernel counts computed from J, M and N.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from time import perf_counter_ns

import ramimo.cli
import ramimo.montecarlo

# (layer, function): each name is patched in ramimo.montecarlo's namespace
LEAF_FUNCTIONS = (
    ("channel", "stream_rng"),
    ("channel", "draw_channel"),
    ("channel", "draw_reference"),
    ("channel", "draw_noise"),
    ("constellation", "modulate"),
    ("constellation", "demap"),
    ("frontend", "observe_single"),
    ("frontend", "observe_prss"),
    ("reconstruct", "reconstruct_optimal"),
    ("reconstruct", "reconstruct_general"),
    ("detect", "ml_linear"),
    ("detect", "zf_linear"),
    ("detect", "ml_single_shot"),
)
MODULES = ("channel", "constellation", "frontend", "reconstruct", "detect", "montecarlo", "cli")
TRIAL = "montecarlo.trial"
SWEEP = "montecarlo.sweep"
MAIN = "cli.main"


def ml_linear_counts(s_hat, H, c, *_, **__) -> tuple[int, int, int]:
    """Computed (candidates, flops, bytes) of one exhaustive `ml_linear` call.

    Per candidate: the complex M x N product (8MN real flops), the
    subtraction of s_hat (2M) and the squared row norm (4M). Bytes: read the
    candidate block, write d, read-modify-write d, read d for the norm, and
    write then read the metric vector (complex128 / float64).
    """
    m, n = H.shape
    count = c.order**n
    return count, count * m * (8 * n + 6), 16 * count * (n + 4 * m + 1)


def ml_single_shot_counts(z, H, r, c, *_, **__) -> tuple[int, int, int]:
    """Computed (candidates, flops, bytes) of one `ml_single_shot` call.

    Per candidate: the complex product (8MN), adding r (2M), the magnitude
    (4M), subtracting z (M) and the squared norm (2M). Bytes: read the
    candidate block, write s, read-modify-write s, read s and write |s|,
    read-modify-write |s|, read it for the norm, write then read the metrics.
    """
    m, n = H.shape
    count = c.order**n
    return count, count * m * (8 * n + 9), 16 * count * (n + 6 * m + 1)


KERNEL_COUNTS = {"detect.ml_linear": ml_linear_counts, "detect.ml_single_shot": ml_single_shot_counts}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.kernel: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self._stack = [0]  # span ids; 0 is the root
        self._next_id = 1

    def _wrap(self, name, fn):
        counts = KERNEL_COUNTS.get(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if counts is not None:
                    acc = self.kernel[name]
                    for i, v in enumerate(counts(*args, **kwargs)):
                        acc[i] += v

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every traced call through a span for the `with` block."""
        targets = [(ramimo.montecarlo, attr, f"{mod}.{attr}") for mod, attr in LEAF_FUNCTIONS]
        targets += [(ramimo.montecarlo, "run_trial", TRIAL),
                    (ramimo.montecarlo, "run_variance_trial", TRIAL)]
        targets += [(ramimo.cli, attr, SWEEP)
                    for attr in ("run_ber_sweep", "run_phi_sweep", "run_rsr_sweep")]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        try:
            for obj, attr, name in targets:
                setattr(obj, attr, self._wrap(name, getattr(obj, attr)))
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span called `name` (used for `cli.main`)."""
        return self._wrap(name, fn)(*args)

    def summary(self) -> dict:
        """Per-name call counts, total and self time; trial durations."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, start, end in self.spans:
            child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        trial_ns = []
        for sid, _parent, name, start, end in self.spans:
            dur = end - start
            calls[name] += 1
            total_ns[name] += dur
            self_ns[name] += dur - child_ns[sid]
            if name == TRIAL:
                trial_ns.append(dur)
        return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns,
                "trial_ns": sorted(trial_ns), "kernel": dict(self.kernel)}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def layer_metrics(summary: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run's summary."""
    calls, total_ns, self_ns = summary["calls"], summary["total_ns"], summary["self_ns"]
    trials = calls[TRIAL]
    trial_ns = total_ns[TRIAL]
    out: dict[str, tuple[float, str]] = {}
    for mod, attr in LEAF_FUNCTIONS:
        name = f"{mod}.{attr}"
        n = calls[name]
        out[f"{name}.us_per_call"] = (total_ns[name] / n / 1e3 if n else 0.0, "us")
        out[f"{name}.calls_per_trial"] = (n / trials if trials else 0.0, "count")
    for name in KERNEL_COUNTS:
        n = calls[name]
        cands, flops, nbytes = summary["kernel"].get(name, (0, 0, 0))
        us = out[f"{name}.us_per_call"][0]
        out[f"{name}.candidates_per_call"] = (cands / n if n else 0.0, "count")
        out[f"{name}.flops_per_call_computed"] = (flops / n if n else 0.0, "flop")
        out[f"{name}.bytes_per_call_computed"] = (nbytes / n if n else 0.0, "B")
        out[f"{name}.gflops_computed"] = (flops / n / (us * 1e3) if n and us else 0.0, "GFLOP/s")
    module_self = defaultdict(int)
    for name, ns in self_ns.items():
        module_self[name.split(".", 1)[0]] += ns
    for mod in MODULES:
        out[f"{mod}.share"] = (module_self[mod] / trial_ns if trial_ns else 0.0, "fraction")
    out["montecarlo.trial.us_p50"] = (percentile(summary["trial_ns"], 50) / 1e3, "us")
    out["montecarlo.trial.us_p99"] = (percentile(summary["trial_ns"], 99) / 1e3, "us")
    out["montecarlo.trial.samples"] = (float(trials), "count")
    out["montecarlo.glue_frac"] = (self_ns[TRIAL] / trial_ns if trial_ns else 0.0, "fraction")
    sweep_ns = total_ns[SWEEP]
    out["montecarlo.engine_overhead_frac"] = (
        self_ns[SWEEP] / sweep_ns if sweep_ns else 0.0, "fraction")
    out["cli.overhead_s"] = (self_ns[MAIN] / 1e9 / passes if passes else 0.0, "s")
    return out
