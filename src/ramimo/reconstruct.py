"""Recover the complex received signal from two amplitude readouts.

With a reference tone much stronger than the signal, the magnitude readout is
approximately linear: z_m ~ |r_m| + Re{u_m s_m} with u_m = conj(r_m)/|r_m|.
Two slots with a phase offset phi between them give two real projections of
each s_m, y1 = Re{u s} and y2 = Re{u e^{j phi} s}. Their 2x2 measurement
matrix has determinant -sin(phi), so one closed form inverts it at every
usable offset: Im{u s} = (y1 cos(phi) - y2) / sin(phi). At a quarter-turn
offset the projections are orthogonal, the form reads Im{u s} = -+y2
(`reconstruct_optimal`), and the effective noise keeps the variance of the
original receiver noise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SIN_PHI_TOL = 1e-9

Readouts = tuple[np.ndarray, np.ndarray]  # (z1, z2), the two slots' amplitudes


class DegenerateReferenceError(ValueError):
    """Reference tone has a zero-magnitude element; phase normalizer undefined."""


class SingularOffsetError(ValueError):
    """sin(phi) ~ 0: both slots project onto the same axis, no inverse exists."""


class Reference(NamedTuple):
    """A reference tone r with what every reconstruction at it reads: the
    magnitudes |r| and the phase normalizers u = conj(r)/|r|.

    Made once by `reference_terms`, it serves every readout pair taken at
    that tone; the reconstructions take it wherever they take r.
    """

    r: np.ndarray
    mag: np.ndarray
    u: np.ndarray


def reference_terms(r) -> Reference:
    """|r| and u of the tone r; a Reference is returned as it is."""
    if isinstance(r, Reference):
        return r
    r = np.asarray(r)
    mag = np.abs(r)
    if np.any(mag == 0.0):
        raise DegenerateReferenceError("reference signal has a zero-magnitude element")
    return Reference(r, mag, np.conj(r) / mag)


def _effective(z: Readouts, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z1, z2 = z
    if z1.shape != mag.shape or z2.shape != mag.shape:
        raise ValueError(f"length mismatch: z1 {z1.shape}, z2 {z2.shape}, r {mag.shape}")
    return z1 - mag, z2 - mag


def reconstruct_optimal(z: Readouts, r: np.ndarray | Reference, sign: int = 1) -> np.ndarray:
    """Closed-form estimate s_hat for a quarter-turn offset, phi = sign * pi/2.

    s_hat_m = conj(u_m) * (y1_m - j*y2_m) for sign=+1, and the conjugate
    combination (y1_m + j*y2_m) for sign=-1.  The readouts z = (z1, z2) must
    have been taken at that offset; no correction is applied beyond the
    first-order model, so the Taylor residual of order |s|^2/|r| remains.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ref = reference_terms(r)
    y1, y2 = _effective(z, ref.mag)
    return np.conj(ref.u) * (y1 - 1j * sign * y2)


def reconstruct_general(z: Readouts, r: np.ndarray | Reference, phi: float) -> np.ndarray:
    """Estimate s_hat from the readouts z = (z1, z2) taken at offset phi.

    Within 1e-12 of a quarter turn this is `reconstruct_optimal`. Elsewhere
    it inverts the per-receiver 2x2 system in closed form:
    s_hat_m = conj(u_m) * (y1_m + j*(y1_m cos(phi) - y2_m) / sin(phi)).
    Errors in y1 and y2 reach the estimate amplified by up to
    (1 + |cos phi|)/|sin phi|, so offsets with |sin phi| below SIN_PHI_TOL
    are rejected outright. No LAPACK routine runs, so no BLAS kernel choice
    reaches the bits. A stack of trials, readouts and r of shape (..., M),
    is one call over all of its receivers.
    """
    if abs(abs(phi) - np.pi / 2) < 1e-12:
        return reconstruct_optimal(z, r, 1 if phi > 0 else -1)
    if abs(np.sin(phi)) < SIN_PHI_TOL:
        raise SingularOffsetError(f"phi={phi} gives a singular measurement matrix")
    ref = reference_terms(r)
    y1, y2 = _effective(z, ref.mag)
    return np.conj(ref.u) * (y1 + 1j * ((y1 * np.cos(phi) - y2) / np.sin(phi)))


def predicted_trace(phi: float, u_mod: float = 1.0) -> float:
    """Trace of the inverse Gram matrix of the projections: 2/(u_mod^2 sin^2 phi).

    This is the least-squares error amplification factor; it is minimized at
    phi = +-pi/2 where it equals 2/u_mod^2.
    """
    s = np.sin(phi)
    if abs(s) < SIN_PHI_TOL:
        raise SingularOffsetError(f"phi={phi} gives a singular measurement matrix")
    with np.errstate(over="ignore", divide="ignore"):  # inf or 0 at extreme u_mod
        return 2.0 / (np.float64(u_mod) ** 2 * s**2)


def predicted_mse(phi: float, sigma_v_sq: float) -> float:
    """Predicted reconstruction MSE per receiver: sigma_v_sq / sin^2(phi).

    Each effective observation carries the real projection of circular noise,
    variance sigma_v_sq/2, so the LS error is (sigma_v_sq/2) * predicted_trace.
    At phi = +-pi/2 this equals sigma_v_sq: no noise amplification.
    """
    with np.errstate(over="ignore"):  # inf at extreme sigma_v_sq
        return 0.5 * sigma_v_sq * predicted_trace(phi, 1.0)
