"""Rayleigh channel, reference-tone and noise generation from named streams.

Every random quantity is drawn from an explicitly passed generator.  Streams
are derived with counter-based Philox keyed on (seed, trial_index, role), so
trial k's draws are reproducible bit-exactly on any platform and independent
of execution order or worker count.
"""

from __future__ import annotations

import numpy as np

# role ids for the per-trial streams
STREAM_IDS = {"bits": 0, "channel": 1, "reference": 2, "noise1": 3, "noise2": 4}

_TRIAL_DOMAIN = 0
_POINT_DOMAIN = 1


def stream_rng(seed: int, trial_index: int, stream: str) -> np.random.Generator:
    """Independent Philox generator for one (seed, trial, role) triple."""
    key = np.random.SeedSequence(
        seed, spawn_key=(_TRIAL_DOMAIN, trial_index, STREAM_IDS[stream])
    )
    return np.random.Generator(np.random.Philox(key))


def derive_point_seed(seed: int, point_index: int) -> int:
    """64-bit sub-seed for sweep point `point_index`, disjoint from trial streams."""
    key = np.random.SeedSequence(seed, spawn_key=(_POINT_DOMAIN, point_index, 0))
    return int(key.generate_state(1, np.uint64)[0])


def _check_dims(M: int, N: int) -> None:
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be positive, got M={M}, N={N}")


def draw_channel(M: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an M x N Rayleigh channel: i.i.d. CN(0, 1/N) entries."""
    _check_dims(M, N)
    scale = np.sqrt(0.5 / N)
    return scale * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


def draw_reference(M: int, N: int, rsr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the length-M reference tone r for a target reference-to-signal ratio.

    With unit-energy symbols one user's contribution at a receiver has power
    1/N, so |r_m| = sqrt(10^(rsr_db/10) / N) exactly; only the per-receiver
    phase, uniform on (-pi, pi], consumes randomness.
    """
    _check_dims(M, N)
    magnitude = np.sqrt(10.0 ** (rsr_db / 10.0) / N)
    phase = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=M)
    return magnitude * np.exp(1j * phase)


def draw_noise(M: int, sigma_v_sq: float, rng: np.random.Generator) -> np.ndarray:
    """Draw length-M circular complex Gaussian noise of variance sigma_v_sq."""
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    if sigma_v_sq < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma_v_sq}")
    scale = np.sqrt(0.5 * sigma_v_sq)
    return scale * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
