"""Amplitude-only receiver frontend.

An atomic receiver reads the magnitude of the superposed RF field, so the
per-slot observation is |Hx + v + r| element-wise: the complex sum of signal,
noise and reference tone enters the readout before the magnitude is taken.
"""

from __future__ import annotations

import numpy as np


def _check_shapes(H: np.ndarray, x: np.ndarray, r: np.ndarray, v: np.ndarray) -> None:
    if H.ndim >= 2:
        *stack, M, N = H.shape
        if x.shape == (*stack, N) and r.shape == v.shape == (*stack, M):
            return
    raise ValueError(
        f"inconsistent shapes: H {H.shape}, x {x.shape}, r {r.shape}, v {v.shape}"
    )


def received(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Noiseless received signal Hx; a stack of channels (..., M, N) takes a
    matching stack of symbol vectors (..., N)."""
    return np.matmul(H, x[..., None])[..., 0]


def rotate(x: np.ndarray, phi: float) -> np.ndarray:
    """The symbols slot 2 carries: x * exp(j*phi)."""
    return np.asarray(x) * np.exp(1j * phi)


def readout(s: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One slot's readout |s + v + r| of a received signal s = Hx, element-wise."""
    return np.abs(s + v + r)


def observe_single(H: np.ndarray, x: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One slot's readout |Hx + v + r|, one nonnegative value per receiver.

    Takes stacks too: H (..., M, N), x (..., N), r and v (..., M).
    """
    H = np.asarray(H)
    x, r, v = (np.asarray(a) for a in (x, r, v))
    _check_shapes(H, x, r, v)
    return readout(received(H, x), r, v)


def observe_prss(
    H: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    phi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Readouts (z1, z2) of the same symbol vector sent twice, rotated in slot 2.

    The channel and reference are held fixed across both slots; only the
    noise differs.  Slot 2 carries x * exp(j*phi).
    """
    return observe_single(H, x, r, v1), observe_single(H, rotate(x, phi), r, v2)
