"""Seeded Monte Carlo engine for the noise-variance and BER experiments.

Determinism contract: every trial's random streams are derived only from
(master_seed, trial_index), a BER point reads its stopping rule only at
fixed batch boundaries, and per-point results are reduced in trial order, so
error and bit counts are identical for any worker count, whichever process
ran which trial.  Sweep points get independent sub-seeds, except the
reference-strength sweep, which evaluates every strength on the same draws
so the recovery error can be compared pathwise across points.

A sweep runs its points side by side, in rounds: each round lays one span
of trials per running point end to end in one range (`_Span`), and its
processes claim chunks of that range, which may cross from one point into
the next. A BER round holds each running point's next batch when the sweep
has an error target, and all of its trials when it has none; a phase sweep
is one round of every offset.

Each block of trials that a process claims derives its own stream keys
(`trial_keys`, from each point's sub-seed, in one call per stacked chunk)
and draws a trial's streams from one restarted generator
(`keyed_rng`), each into its row of a chunk buffer per role. Every other
step runs stacked, a chunk of trials per numpy call: the draws' elementwise
steps; the frontend, reconstruction and squared error of a variance chunk,
whose points compute what they share once (`_Shared`); the frontend,
reconstruction, detection, demapping and bit counting of a BER chunk. A
stacked value is bit for bit what its trial gives alone.

One `_Runner` starts, feeds and joins a sweep's processes. With W > 1 it
runs trials on the calling process alone, which times them, until the time
that W - 1 forked workers would save on the trials the sweep may still run
covers what starting them costs (`_POOL_COST_S`); the workers then run
trials beside it for the rest of the sweep. Once they start, OpenBLAS runs
on one thread in every process, the caller included, so W processes keep W
cores busy instead of W times OpenBLAS's own thread count; a run that never
forks, serial or not, keeps the process's BLAS threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import multiprocessing
import multiprocessing.connection
import os
import platform
import signal
from dataclasses import dataclass, replace
from functools import lru_cache
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    MAX_TRIALS, STREAM_IDS, derive_point_seed, keyed_rng, noise_scale, reference_magnitude,
    trial_keys,
)
# perfbench's tracer patches these names here
from .channel import draw_channel, draw_noise, draw_reference, stream_rng  # noqa: F401
from .constellation import demap, make_qam, modulate
from .detect import (
    candidate_count, check_determined, ml_linear_stacked, ml_single_shot_stacked, zf_linear,
)
from .detect import ml_linear, ml_single_shot  # noqa: F401  (patched by perfbench's tracer)
from .frontend import observe_single, readout, received, rotate
from .frontend import observe_prss  # noqa: F401  (patched by perfbench's tracer)
from .reconstruct import SIN_PHI_TOL, reconstruct_general, reference_terms
from .reconstruct import reconstruct_optimal  # noqa: F401  (patched by perfbench's tracer)

SCHEMES = ("prss", "single_shot", "rf_baseline")
DETECTORS = ("ml", "zf")
QAM_ORDERS = (0, 4, 16, 64)  # 0 = scheme default

PI_HALF = math.pi / 2

# trials per BER point per round of a sweep with an error target; the
# stopping rule is read only at these batch boundaries, which keeps counts
# independent of the worker count
BATCH_TRIALS = 256

# the streams a scheme's trial reads, in key-table order; streams are keyed
# by role, so skipping one moves no other
_ROLES = {
    "rf_baseline": ("bits", "channel", "noise1"),
    "single_shot": ("bits", "channel", "noise1", "reference"),
    "prss": ("bits", "channel", "noise1", "reference", "noise2"),
}

# receiver rows per stacked variance chunk (4 trials at M = 512): the
# chunk's arrays stay under about 1 MB, and larger chunks ran no faster
_VARIANCE_ROWS = 1 << 11
# channel entries per stacked BER chunk (1 MB): a whole batch at 8x4, 8
# trials at 128x64; the ML detectors bound their own tables (detect._STACK)
_BER_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one experiment (scalars apply per sweep point).

    snr_db is defined as -10*log10(sigma_v_sq): constellations have unit
    average energy and channel entries have variance 1/N, so received signal
    power per receiver is 1 and every scheme spends the same energy per
    information bit (two unit-energy slots for 4 bits vs one for 2 bits).
    """

    m: int = 8
    n: int = 4
    scheme: str = "prss"
    detector: str = "ml"
    qam_order: int = 0  # 0 = scheme default: 16 for prss, 4 otherwise
    rsr_db: float = 26.0
    phi: float = PI_HALF
    sigma_v_sq: float = 0.1
    snr_db_list: tuple[float, ...] = ()
    phi_list: tuple[float, ...] = ()
    rsr_db_list: tuple[float, ...] = ()
    sigma_v_sq_list: tuple[float, ...] = (0.1, 0.01, 0.001)
    trials: int = 10_000
    target_errors: int = 200
    samples: int = 200_000
    master_seed: int = 20260808
    workers: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}; expected one of {DETECTORS}")
        if self.scheme == "single_shot" and self.detector != "ml":
            raise ValueError("single_shot only supports the ml detector")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got m={self.m}, n={self.n}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {self.trials}")
        if self.target_errors < 0:
            raise ValueError("target_errors must be >= 0 (0 disables early stopping)")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if _variance_trials(self) > MAX_TRIALS:
            raise ValueError(
                f"samples={self.samples} at m={self.m} takes {_variance_trials(self)} "
                f"trials, more than {MAX_TRIALS}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if self.sigma_v_sq < 0:
            raise ValueError(f"sigma_v_sq must be >= 0, got {self.sigma_v_sq}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.qam_order not in QAM_ORDERS:
            raise ValueError(f"qam_order must be one of {QAM_ORDERS}, got {self.qam_order}")
        for name in ("rsr_db", "phi", "sigma_v_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("snr_db_list", "phi_list", "rsr_db_list", "sigma_v_sq_list"):
            bad = [v for v in getattr(self, name) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{name} must hold finite numbers, got {bad[0]}")
        if any(v < 0 for v in self.sigma_v_sq_list):
            raise ValueError(f"sigma_v_sq_list must hold values >= 0, got {self.sigma_v_sq_list}")
        for snr_db in self.snr_db_list:
            try:
                snr_db_to_sigma_v_sq(snr_db)
            except OverflowError:
                raise ValueError(f"snr_db={snr_db!r} overflows the noise variance") from None
        # prss divides by |r|; single_shot's detector handles r = 0; rf_baseline has no r
        rsr_values = {"prss": (self.rsr_db, *self.rsr_db_list), "single_shot": (self.rsr_db,)}
        for rsr_db in rsr_values.get(self.scheme, ()):
            try:
                mag = reference_magnitude(self.n, rsr_db)
            except OverflowError:
                mag = math.inf
            if not math.isfinite(mag) or (mag == 0 and self.scheme == "prss"):
                raise ValueError(f"rsr_db={rsr_db!r} gives a reference magnitude of {mag}")
        if self.scheme == "prss":
            for phi in (self.phi, *self.phi_list):
                if abs(math.sin(phi)) < SIN_PHI_TOL:
                    raise ValueError(f"phi={phi!r} is a singular offset for prss (sin(phi) = 0)")
        # a BER sweep's detector must accept its geometry; variance sweeps never detect
        if self.snr_db_list:
            if self.detector == "ml":
                candidate_count(self.order, self.n)
            else:
                check_determined(self.m, self.n)

    @property
    def order(self) -> int:
        if self.qam_order:
            return self.qam_order
        return 16 if self.scheme == "prss" else 4


# The fields of each sweep record type are the columns of its command's CSV,
# in order: the CLI writes a sweep's header and rows from its records.
@dataclass(frozen=True)
class BerSweepRecord:
    scheme: str
    detector: str
    snr_db: float
    rsr_db: float
    m: int
    n: int
    qam: int
    bit_errors: int
    bits_total: int
    ber: float
    ci95: float  # half-width of the normal-approximation (Wald) 95% interval
    seed: int


@dataclass(frozen=True)
class PhiSweepRecord:
    phi_rad: float
    sigma_ve_sq: float
    sigma_v_sq: float
    rsr_db: float
    samples: int
    seed: int


@dataclass(frozen=True)
class RsrSweepRecord:
    rsr_db: float
    sigma_v_sq: float
    sigma_ve_sq: float
    samples: int
    seed: int


def snr_db_to_sigma_v_sq(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def split_singular(grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(usable, skipped) phase offsets in grid order; skipped ones have sin(phi) ~ 0."""
    usable, skipped = [], []
    for p in grid:
        (skipped if abs(math.sin(p)) < SIN_PHI_TOL else usable).append(p)
    return tuple(usable), tuple(skipped)


def default_phi_grid() -> tuple[float, ...]:
    """Offsets covering (-pi, pi] in steps of pi/36, singular points removed."""
    return split_singular((np.arange(-35, 37) * (math.pi / 36)).tolist())[0]


def _variance_trials(cfg: ExperimentConfig) -> int:
    """Trials a variance point runs: enough for cfg.samples receiver samples."""
    return math.ceil(cfg.samples / cfg.m)


class _Draws(NamedTuple):
    """The scale-free draws of a chunk of trials, stacked on axis 0.

    The reference strength and the noise variance only scale e and w1/w2,
    so one chunk of draws serves every point of a reference-strength sweep.
    A stream that the trials do not read is None.
    """

    bits: np.ndarray  # (B, N * bits per symbol)
    x: np.ndarray  # (B, N) symbols
    H: np.ndarray  # (B, M, N) channels
    e: np.ndarray | None  # (B, M) reference phasors
    w1: np.ndarray  # (B, M) unscaled noise of slot 1
    w2: np.ndarray | None  # (B, M) and of slot 2


def _fair_bits(keys, count: int) -> np.ndarray:
    """`keyed_rng(key).integers(0, 2, count)` of each key, as rows (int64).

    integers(0, 2) draws by Lemire's method, which for a range of 2 is the
    top bit of a uint32, and Philox hands out a raw 64-bit word's low half
    before its high half. So the bits are bits 31 and 63 of each raw word,
    in that order, ceil(count / 2) words per stream.
    """
    half = (count + 1) // 2
    words = np.array([keyed_rng(key).bit_generator.random_raw(half) for key in keys],
                     dtype="<u8").reshape(-1, half)
    return (words.view("<u4") >> 31)[:, :count].astype(np.int64)


def _draws(cfg: ExperimentConfig, keys: np.ndarray, roles: tuple[str, ...]) -> _Draws:
    """Draws of the trials whose key-table rows over `roles` are keys: one
    draw per trial and role, each from its own stream.

    Each stream writes its raw numbers into its trial's row of one chunk
    buffer per role; the elementwise steps that turn them into channels,
    phasors and noise then run once per chunk. They are the steps of
    `draw_channel`, `draw_phasors` and `draw_complex_normal` on each row, so
    every value is bit for bit what those and `integers(0, 2)` give per trial.
    """
    c = make_qam(cfg.order)
    trials, m, n = len(keys), cfg.m, cfg.n
    out = dict.fromkeys(STREAM_IDS)
    for role, column in zip(roles, keys.transpose(1, 0, 2).tolist()):
        if role == "bits":
            out[role] = _fair_bits(column, n * c.bits_per_symbol)
        elif role == "reference":
            buf = np.empty((trials, m))
            for row, key in zip(buf, column):
                keyed_rng(key).random(out=row)
            # draw_phasors' phase uniform(0, 2 pi) is 0 + 2 pi u, which is 2 pi u
            out[role] = np.exp(1j * (np.pi - 2.0 * np.pi * buf))
        else:  # a complex normal: all real parts, then all imaginary parts
            buf = np.empty((trials, 2, m, n) if role == "channel" else (trials, 2, m))
            for row, key in zip(buf, column):
                keyed_rng(key).standard_normal(out=row)
            z = buf[:, 0] + 1j * buf[:, 1]
            out[role] = np.sqrt(0.5 / n) * z if role == "channel" else z
    bits = out["bits"]
    return _Draws(
        bits=bits, x=modulate(bits.ravel(), c).reshape(-1, n),
        H=out["channel"], e=out["reference"], w1=out["noise1"], w2=out["noise2"],
    )


class _Shared:
    """What the prss points of a chunk of draws share, each computed once, on
    the first point that reads it: s = Hx, H(x e^{j phi}) per offset, the
    reference terms per strength and the scaled noise per variance.

    Every piece is computed by the same operations on the same operands as
    when a point computes it alone, so each point keeps its bits.
    """

    def __init__(self, draws: _Draws, n: int):
        self.draws, self.n = draws, n
        self.s = received(draws.H, draws.x)
        self.memo = {}  # each piece by (name, its parameter)

    def rotated(self, phi: float) -> np.ndarray:
        key = "rotated", phi
        if key not in self.memo:
            self.memo[key] = received(self.draws.H, rotate(self.draws.x, phi))
        return self.memo[key]

    def reference(self, rsr_db: float):
        key = "reference", rsr_db
        if key not in self.memo:
            self.memo[key] = reference_terms(reference_magnitude(self.n, rsr_db) * self.draws.e)
        return self.memo[key]

    def noise(self, sigma_v_sq: float) -> tuple[np.ndarray, np.ndarray]:
        key = "noise", sigma_v_sq
        if key not in self.memo:
            scale = noise_scale(sigma_v_sq)
            self.memo[key] = scale * self.draws.w1, scale * self.draws.w2
        return self.memo[key]


def _recover(shared: _Shared, rsr_db: float, noise, phi: float):
    """Stacked s_hat of a chunk's prss trials at one reference strength and
    offset, with noise the scaled (v1, v2): `observe_prss`, then
    `reconstruct_general`, on the terms in shared. Bit for bit what each
    trial gives on its own."""
    ref = shared.reference(rsr_db)
    v1, v2 = noise
    z = readout(shared.s, ref.r, v1), readout(shared.rotated(phi), ref.r, v2)
    return reconstruct_general(z, ref, phi)


def _ber_chunk(cfg: ExperimentConfig, keys: np.ndarray, sigma_v_sq):
    """Detection trials whose key-table rows (roles _ROLES[cfg.scheme]) are
    keys, stacked: returns (observed, x_hat, errors), each on axis 0 per trial.

    sigma_v_sq is each trial's noise variance, as a column (one per row), or
    one for every row: either way a row's noise is the same elementwise
    product. observed is what the detector reads: s_hat (rf_baseline's
    Hx + v1, or prss's reconstruction), or single_shot's readout z. errors
    counts each trial's wrong bits.
    """
    c = make_qam(cfg.order)
    draws = _draws(cfg, keys, _ROLES[cfg.scheme])
    scale = noise_scale(sigma_v_sq)
    if cfg.scheme == "single_shot":
        r = reference_magnitude(cfg.n, cfg.rsr_db) * draws.e
        observed = observe_single(draws.H, draws.x, r, scale * draws.w1)
        x_hat = ml_single_shot_stacked(observed, draws.H, r, c)
    else:
        if cfg.scheme == "rf_baseline":  # complex observation, no magnitude readout
            observed = received(draws.H, draws.x) + scale * draws.w1
        else:
            noise = scale * draws.w1, scale * draws.w2
            observed = _recover(_Shared(draws, cfg.n), cfg.rsr_db, noise, cfg.phi)
        detector = ml_linear_stacked if cfg.detector == "ml" else zf_linear
        x_hat = detector(observed, draws.H, c)
    wrong = demap(x_hat.ravel(), c).reshape(draws.bits.shape) != draws.bits
    return observed, x_hat, wrong.sum(axis=1)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[int, int]:
    """One detection trial on fresh draws; returns (bit_errors, bits)."""
    [errors] = _ber_spans((_Span(cfg, trial_index, trial_index + 1),), 0, 1)
    return errors, cfg.n * make_qam(cfg.order).bits_per_symbol


def run_variance_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[np.ndarray, np.ndarray]:
    """One reconstruction trial: returns (s_hat, s) with s = Hx kept as ground truth."""
    keys = trial_keys(((cfg.master_seed, trial_index, trial_index + 1),), _ROLES["prss"])
    shared = _Shared(_draws(cfg, keys, _ROLES["prss"]), cfg.n)
    s_hat = _recover(shared, cfg.rsr_db, shared.noise(cfg.sigma_v_sq), cfg.phi)
    return s_hat[0], shared.s[0]


def _ber_step(cfg: ExperimentConfig) -> int:
    """Trials per stacked BER chunk: at most _BER_ENTRIES channel entries."""
    return max(1, _BER_ENTRIES // (cfg.m * cfg.n))


def _variance_step(cfg: ExperimentConfig) -> int:
    """Trials per stacked variance chunk: at most _VARIANCE_ROWS receiver rows."""
    return max(1, _VARIANCE_ROWS // cfg.m)


class _Span(NamedTuple):
    """Trials start..stop-1 of one sweep point, whose config cfg carries its
    sub-seed (and a BER point's noise variance): one piece of a round, whose
    range lays its spans end to end. points are a variance span's
    (rsr_db, sigma_v_sq, phi) triples, which all read its draws."""

    cfg: ExperimentConfig
    start: int
    stop: int
    points: tuple = ()


def _pieces(spans, lo: int, hi: int):
    """(span index, first trial, stop) of each span's part of trials lo..hi-1
    of the round's range."""
    at = 0
    for i, span in enumerate(spans):
        end = at + span.stop - span.start
        if lo < end and at < hi:
            yield i, span.start + max(lo, at) - at, span.start + min(hi, end) - at
        at = end


def _ber_spans(spans, lo: int, hi: int) -> list[int]:
    """Bit errors of each span of a BER round among the round's trials
    lo..hi-1; the spans share every setting but seed and noise variance.

    The trials run in stacked chunks of _ber_step trials, which may cross
    from one span into the next: one `trial_keys` call per chunk keys each
    span's rows from its own sub-seed, and each row carries its span's noise
    variance.
    """
    cfg = spans[0].cfg
    step, roles = _ber_step(cfg), _ROLES[cfg.scheme]
    errors = [0] * len(spans)
    for a in range(lo, hi, step):
        pieces = list(_pieces(spans, a, min(a + step, hi)))
        keys = trial_keys([(spans[i].cfg.master_seed, x, y) for i, x, y in pieces], roles)
        sizes = [y - x for _, x, y in pieces]
        sigma_v_sq = np.repeat([spans[i].cfg.sigma_v_sq for i, _, _ in pieces], sizes)
        wrong = _ber_chunk(cfg, keys, sigma_v_sq[:, None])[2]
        at = 0
        for (i, _, _), size in zip(pieces, sizes):
            errors[i] += int(wrong[at:at + size].sum())
            at += size
    return errors


def _variance_spans(spans, lo: int, hi: int) -> list[tuple[int, np.ndarray]]:
    """(span index, ||s_hat - s||^2 at each of its points) of each span's
    part of a variance round's trials lo..hi-1, an array of shape (points,
    trials). Each span runs in stacked chunks of _variance_step trials that
    stop at its end, since a chunk's points share its draws."""
    step = _variance_step(spans[0].cfg)
    out = []
    for i, x, y in _pieces(spans, lo, hi):
        cfg, points = spans[i].cfg, spans[i].points
        keys = trial_keys(((cfg.master_seed, x, y),), _ROLES["prss"])
        out.append((i, np.concatenate([_variance_chunk(cfg, keys[a:a + step], points)
                                       for a in range(0, y - x, step)], axis=1)))
    return out


def _variance_chunk(cfg: ExperimentConfig, keys: np.ndarray, points) -> np.ndarray:
    """||s_hat - s||^2 at each point of the trials whose key rows are keys,
    drawn once for all the points, and with every term that points share
    computed once: shape (points, trials)."""
    shared = _Shared(_draws(cfg, keys, _ROLES["prss"]), cfg.n)
    return np.array([
        np.sum(np.abs(_recover(shared, rsr_db, shared.noise(sigma_v_sq), phi) - shared.s) ** 2,
               axis=-1)
        for rsr_db, sigma_v_sq, phi in points
    ])


def _run_round(run: _Runner, block, spans, later: int, step: int) -> list:
    """run.map of block over a round's spans laid end to end, in trial
    order; later counts the trials the sweep may still run after it."""
    return run.map(block, spans, 0, sum(span.stop - span.start for span in spans), later, step)


def _ber_rounds(points, run: _Runner) -> list[tuple[int, int]]:
    """(bit errors, bits) of each point (a config with its sub-seed and
    noise variance), the points run side by side in rounds.

    A round holds one span per running point: its next BATCH_TRIALS trials
    when the sweep has an error target, else all its trials. After each
    round every point reads its stopping rule, at the batch boundary where
    it would alone, so no count depends on the other points.
    """
    cfg = points[0]
    batch = BATCH_TRIALS if cfg.target_errors else cfg.trials
    errors = [0] * len(points)
    done = [0] * len(points)
    running = list(range(len(points)))
    while running:
        spans = [_Span(points[i], done[i], min(done[i] + batch, cfg.trials)) for i in running]
        later = sum(cfg.trials - span.stop for span in spans)
        for counts in _run_round(run, _ber_spans, spans, later, _ber_step(cfg)):
            for i, count in zip(running, counts):
                errors[i] += count
        for i, span in zip(running, spans):
            done[i] = span.stop
        running = [i for i in running if done[i] < cfg.trials
                   and not (cfg.target_errors and errors[i] >= cfg.target_errors)]
    bits = cfg.n * make_qam(cfg.order).bits_per_symbol
    return [(e, trials * bits) for e, trials in zip(errors, done)]


def _variance_points(spans, run: _Runner) -> list[list[tuple[float, int]]]:
    """Mean ||s_hat - s||^2 per receiver at each point of each span, all of
    a span's points on its cfg.samples or more receiver samples, and that
    count; the spans run as one round, each over its point's trials."""
    rows = [[] for _ in spans]
    for pieces in _run_round(run, _variance_spans, spans, 0, _variance_step(spans[0].cfg)):
        for i, part in pieces:
            rows[i].append(part)
    # one ordered reduction per point keeps the result identical for any worker count
    samples = [_variance_trials(span.cfg) * span.cfg.m for span in spans]
    return [[(float(np.sum(row) / count), count) for row in np.concatenate(parts, axis=1)]
            for count, parts in zip(samples, rows)]


class _BlasThreads(NamedTuple):
    set: Callable[[int], None]
    get: Callable[[], int]
    shutdown: Callable[[], int] | None


# (set, get) thread-count symbols: numpy's bundled scipy-openblas, then plain OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# OpenBLAS's own pre-fork handler: stops the thread team, which the next call
# that needs more than one thread starts again
_BLAS_SHUTDOWN = "blas_thread_shutdown_"


@lru_cache(maxsize=1)
def _blas_threads() -> _BlasThreads | None:
    """Thread controls of the OpenBLAS this process has loaded, or None.

    None when the process maps no OpenBLAS (another BLAS, or no /proc) or the
    library exports neither symbol pair; pool workers then keep BLAS's default.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                shutdown = getattr(lib, _BLAS_SHUTDOWN, None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return _BlasThreads(set_fn, get_fn, shutdown)
    return None


def _set_blas_threads(count: int) -> int | None:
    """Run this process's OpenBLAS on count threads; return its former count,
    or None when the count is out of reach (see _blas_threads)."""
    api = _blas_threads()
    if api is None:
        return None
    former = api.get()
    if former != count:
        api.set(count)
        # After a fork the call above restarts OpenBLAS's thread team, which
        # spin-waits for about 0.1 s of CPU before it sleeps. Stop it: the
        # next call that needs more than one thread starts it again.
        if api.shutdown is not None:
            api.shutdown()
    return former


# chunks per process in a parallel range: each chunk pays a fixed cost of
# draws and detector set-up whatever its size, so fewer chunks run faster on
# short ranges, while more let a faster process take over a slower one's
# share (README, "Parallel runs", has the measurements behind 2)
_CHUNKS_PER_PROCESS = 2


def _chunk(start: int, stop: int, width: int, step: int) -> int:
    """Trials per chunk of the range start..stop-1 on width processes, whose
    block stacks step trials at a time: at most max(step, BATCH_TRIALS), so
    a long range keeps a batch's chunks (memory, Ctrl-C latency and load
    balance as for one batch)."""
    size = math.ceil((stop - start) / (_CHUNKS_PER_PROCESS * width))
    return min(size, max(step, BATCH_TRIALS))


def _take(counter, block, arg, start: int, stop: int, size: int) -> dict:
    """Claim chunks of size trials (the last one the remainder) of the range
    start..stop-1 from the shared counter until it reaches stop; return
    {lo: block(arg, lo, hi)} for the chunks lo..hi-1 this process claimed.
    """
    done = {}
    while True:
        with counter.get_lock():
            lo = counter.value
            counter.value = hi = min(stop, lo + size)
        if lo >= stop:
            return done
        done[lo] = block(arg, lo, hi)


# a worker starts with Ctrl-C held off (see _Runner._start) where the platform can
_HOLD_SIGINT = hasattr(signal, "pthread_sigmask")


def _serve(conn, counter) -> None:
    """Worker loop: for each (block, arg, start, stop, size) that arrives on conn,
    claim chunks with _take and send back their results, or the exception
    that stopped it, until None arrives. A worker whose caller has died, or
    that Ctrl-C reaches after it started, exits without a word."""
    _set_blas_threads(1)
    # a forked worker may hold the caller's end of its own pipe, so the pipe
    # need not close when the caller dies; the caller's sentinel does
    watched = [conn, multiprocessing.parent_process().sentinel]
    try:
        if _HOLD_SIGINT:  # held off since the caller started this worker
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        while conn in multiprocessing.connection.wait(watched):
            job = conn.recv()
            if job is None:
                return
            try:
                reply = _take(counter, *job)
            except BaseException as exc:  # raised again in the calling process
                reply = exc
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):  # nobody is left to serve
        pass


def _reply(conn, proc):
    """What worker proc sent back on conn for a batch, or, if it died and its
    pipe reads as a bare EOFError, a RuntimeError that names it."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        return RuntimeError(f"worker {proc.pid} died in a batch (exit code {proc.exitcode})")


# What starting each of a sweep's W - 1 workers costs the caller, in
# seconds: the fork, the worker's first chunks (copy-on-write faults,
# numpy's first calls) and the join. On a 2-vCPU host (Python 3.11, numpy
# 2.4.6 with OpenBLAS) a one-worker pool (W = 2) that ran one batch of
# 16-256 BER or variance trials took 7-12 ms longer than half the batch's
# serial time (medians of 20 probes per batch size). Only W = 2 was timed
# on real batches; that a pool's cost grows with its worker count comes
# from pools that ran an empty block, 3.4 ms with one worker and 6.1 ms
# with two (medians of 20), so the rule charges this cost per worker.
_POOL_COST_S = 0.008


class _Runner:
    """Runs one sweep's ranges of trials (its rounds), for the span of a
    `with`: on the caller alone until forking W - 1 workers pays for
    itself, then on every process for the rest of the sweep.

    Ski rental (Karlin, Manasse, Rudolph and Sleator, 1988): before each
    block of trials the caller runs alone, the workers start if the time
    they would save, (the caller's measured seconds per trial) x (trials
    the sweep may still run) x (W - 1) / W, covers their cost, (W - 1) x
    _POOL_COST_S, so with _POOL_COST_S = 0 they start before the first
    trial. With nothing measured yet the caller first times the
    ceil(B / 2W) trials it would have claimed of a B-trial batch
    (BATCH_TRIALS, or the range if shorter), or one stacked chunk of them
    (step trials) if that is fewer, so a heavy trial or a long range costs
    no long wait alone; after that, each block it runs alone is one stacked
    chunk, which may cross from one point of a round into the next. A
    serial run (W = 1) runs each range as one block. Only time and trial
    caps are read, and no trial depends on who runs it, so no result moves.
    telemetry gets "workers_started": W - 1 once the workers start, else 0.

    Once the workers start, each process claims the next chunk of a range
    from a shared counter when it is free, so a slower one (a worker warming
    up, or one on a busy core) takes fewer trials instead of holding the
    others up. The processes meet only at the range's end, where a BER
    sweep reads its stopping rules. Results are keyed by the chunk's first
    trial and returned in trial order, whichever process ran them.

    The caller drops OpenBLAS to one thread just before it forks, so every
    process of a forked run runs one BLAS thread and none inherits a thread
    team; on a 2-vCPU host a 128x64 ZF trial also runs faster that way. A
    run that never forks makes no OpenBLAS call, as a serial run makes none.
    On exit the caller joins every worker that started, then gets back the
    thread count it had before the fork.
    """

    def __init__(self, width: int, telemetry: dict | None = None):
        self.width = width
        self.telemetry = {} if telemetry is None else telemetry
        self.telemetry["workers_started"] = 0
        self.conns = []
        self.procs = []
        self.blas_threads = None
        self.seconds = 0.0  # the caller's time on the trials it ran alone
        self.trials = 0

    def __enter__(self) -> "_Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for conn in self.conns:
                with contextlib.suppress(OSError):  # the worker may be gone already
                    conn.send(None)
                conn.close()
            for proc in self.procs:
                proc.join()
        finally:
            if self.blas_threads is not None:
                _set_blas_threads(self.blas_threads)

    def _start(self) -> None:
        """Fork the W - 1 workers, which serve `map` until `__exit__`, with
        OpenBLAS on one thread in the caller first (see `_set_blas_threads`)."""
        self.blas_threads = _set_blas_threads(1)
        ctx = multiprocessing.get_context()
        self.counter = ctx.Value("q", 0)
        # SIGINT is held off here, and so in each worker forked meanwhile:
        # Ctrl-C in a worker's fork handlers would print a traceback. It ends
        # the worker quietly once `_serve` lets it in, and reaches the caller
        # as KeyboardInterrupt when the mask is restored.
        if _HOLD_SIGINT:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(self.width - 1):
                conn, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs, self.counter), daemon=True)
                proc.start()
                theirs.close()
                self.conns.append(conn)
                self.procs.append(proc)
        finally:
            if _HOLD_SIGINT:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.telemetry["workers_started"] = self.width - 1

    def _pays(self, left: int) -> bool:
        per_trial = self.seconds / self.trials if self.trials else 0.0
        workers = self.width - 1
        return per_trial * left * workers / self.width >= workers * _POOL_COST_S

    def map(self, block, arg, start: int, stop: int, later: int, step: int) -> list:
        """block(arg, lo, hi) over chunks lo..hi-1 that cover the range
        start..stop-1, in trial order; later counts the trials the sweep may
        run after this range, and block stacks step trials at a time."""
        done = []
        while start < stop and not self.procs:
            if self.width > 1 and self._pays(stop - start + later):
                self._start()
                continue
            hi = stop
            if self.width > 1:  # one stacked chunk, then the rule again
                hi = min(stop, start + step)
                if not self.trials:  # a first chunk to time: one batch's chunk at most
                    batch = min(stop, start + BATCH_TRIALS)
                    hi = min(hi, start + _chunk(start, batch, self.width, step))
            began = perf_counter()
            done.append(block(arg, start, hi))
            self.seconds += perf_counter() - began
            self.trials += hi - start
            start = hi
        if start >= stop:
            return done
        self.counter.value = start
        job = block, arg, start, stop, _chunk(start, stop, self.width, step)
        for conn in self.conns:
            conn.send(job)
        try:
            claimed = _take(self.counter, *job)
        except BaseException:
            # an interrupt or a failed chunk: the workers stop after the chunks they hold
            with self.counter.get_lock():
                self.counter.value = stop
            raise
        finally:  # every pipe drained, so the next range reads only its own replies
            replies = [_reply(conn, proc) for conn, proc in zip(self.conns, self.procs)]
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
            claimed.update(reply)
        return done + [claimed[lo] for lo in sorted(claimed)]


def run_environment(workers: int, workers_started: int) -> dict:
    """Interpreter, numpy/BLAS build and pool settings of a run, for its manifest.

    blas_threads_per_worker is 1 when the run forked workers (`_Runner` caps
    every process of such a run), the process's own OpenBLAS thread count
    for a run that never forked, and None when unknown.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = None
    api = _blas_threads()
    if api is None:
        per_worker = None
    else:
        per_worker = 1 if workers_started else api.get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
        "workers": workers,
        "blas_threads_per_worker": per_worker,
    }


def run_ber_sweep(cfg: ExperimentConfig, telemetry: dict | None = None) -> list[BerSweepRecord]:
    """BER vs SNR for the configured scheme; one independent sub-seed per point.

    telemetry, if given, gets "workers_started" (see `_Runner`).
    """
    if not cfg.snr_db_list:
        raise ValueError("snr_db_list must not be empty")
    points = [
        replace(cfg, sigma_v_sq=snr_db_to_sigma_v_sq(snr_db),
                master_seed=derive_point_seed(cfg.master_seed, i))
        for i, snr_db in enumerate(cfg.snr_db_list)
    ]
    with _Runner(cfg.workers, telemetry) as run:
        counts = _ber_rounds(points, run)
    records = []
    for snr_db, point, (errors, bits) in zip(cfg.snr_db_list, points, counts):
        ber = errors / bits
        records.append(
            BerSweepRecord(
                scheme=cfg.scheme,
                detector=cfg.detector,
                snr_db=snr_db,
                rsr_db=cfg.rsr_db,
                m=cfg.m,
                n=cfg.n,
                qam=cfg.order,
                bit_errors=errors,
                bits_total=bits,
                ber=ber,
                ci95=1.96 * math.sqrt(ber * (1.0 - ber) / bits),
                seed=point.master_seed,
            )
        )
    return records


def run_phi_sweep(cfg: ExperimentConfig, telemetry: dict | None = None) -> list[PhiSweepRecord]:
    """Reconstruction error vs phase offset; fresh draws at every offset.

    Point i of phi_list (default: default_phi_grid()) runs on sub-seed i.
    Every offset's trials run in one round. telemetry, if given, gets
    "workers_started" (see `_Runner`).
    """
    grid = cfg.phi_list or default_phi_grid()
    spans = []
    for i, phi in enumerate(grid):
        point = replace(cfg, master_seed=derive_point_seed(cfg.master_seed, i))
        spans.append(_Span(point, 0, _variance_trials(cfg), ((cfg.rsr_db, cfg.sigma_v_sq, phi),)))
    with _Runner(cfg.workers, telemetry) as run:
        results = _variance_points(spans, run)
    return [
        PhiSweepRecord(
            phi_rad=phi,
            sigma_ve_sq=sigma_ve_sq,
            sigma_v_sq=cfg.sigma_v_sq,
            rsr_db=cfg.rsr_db,
            samples=samples,
            seed=span.cfg.master_seed,
        )
        for phi, span, [(sigma_ve_sq, samples)] in zip(grid, spans, results)
    ]


def run_rsr_sweep(cfg: ExperimentConfig, telemetry: dict | None = None) -> list[RsrSweepRecord]:
    """Reconstruction error vs reference strength at a quarter-turn offset.

    Every point is evaluated on the same draws (only the reference magnitude
    and the noise scale change), so the Taylor-residual decay with reference
    strength shows up pathwise rather than being buried in sampling noise.
    Each trial is drawn once for all the points. telemetry, if given, gets
    "workers_started" (see `_Runner`).
    """
    if not cfg.rsr_db_list:
        raise ValueError("rsr_db_list must not be empty")
    if not cfg.sigma_v_sq_list:
        raise ValueError("sigma_v_sq_list must not be empty")
    grid = [(rsr_db, sigma_v_sq) for sigma_v_sq in cfg.sigma_v_sq_list
            for rsr_db in cfg.rsr_db_list]
    span = _Span(cfg, 0, _variance_trials(cfg), tuple((r, sv, PI_HALF) for r, sv in grid))
    with _Runner(cfg.workers, telemetry) as run:
        [results] = _variance_points([span], run)
    return [
        RsrSweepRecord(
            rsr_db=rsr_db,
            sigma_v_sq=sigma_v_sq,
            sigma_ve_sq=sigma_ve_sq,
            samples=samples,
            seed=cfg.master_seed,
        )
        for (rsr_db, sigma_v_sq), (sigma_ve_sq, samples) in zip(grid, results)
    ]
