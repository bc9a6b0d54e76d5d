"""Recover the complex received signal from two amplitude readouts.

With a reference tone much stronger than the signal, the magnitude readout is
approximately linear: z_m ~ |r_m| + Re{u_m s_m} with u_m = conj(r_m)/|r_m|.
Two slots with a phase offset between them give two real projections of each
s_m, which a per-receiver 2x2 solve turns back into a complex estimate.  At a
quarter-turn offset the projections are orthogonal, the solve collapses to a
closed form, and the effective noise keeps the variance of the original
receiver noise.
"""

from __future__ import annotations

import numpy as np

SIN_PHI_TOL = 1e-9

Readouts = tuple[np.ndarray, np.ndarray]  # (z1, z2), the two slots' amplitudes


class DegenerateReferenceError(ValueError):
    """Reference tone has a zero-magnitude element; phase normalizer undefined."""


class SingularOffsetError(ValueError):
    """sin(phi) ~ 0: both slots project onto the same axis, no inverse exists."""


def _normalizers(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r)
    mag = np.abs(r)
    if np.any(mag == 0.0):
        raise DegenerateReferenceError("reference signal has a zero-magnitude element")
    return np.conj(r) / mag


def effective_observations(z: Readouts, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective observations (y1, y2): the readouts z less the reference magnitude."""
    z1, z2 = z
    mag = np.abs(np.asarray(r))
    if z1.shape != mag.shape or z2.shape != mag.shape:
        raise ValueError(f"length mismatch: z1 {z1.shape}, z2 {z2.shape}, r {mag.shape}")
    return z1 - mag, z2 - mag


def reconstruct_optimal(z: Readouts, r: np.ndarray, sign: int = 1) -> np.ndarray:
    """Closed-form estimate s_hat for a quarter-turn offset, phi = sign * pi/2.

    s_hat_m = conj(u_m) * (y1_m - j*y2_m) for sign=+1, and the conjugate
    combination (y1_m + j*y2_m) for sign=-1.  The readouts z = (z1, z2) must
    have been taken at that offset; no correction is applied beyond the
    first-order model, so the Taylor residual of order |s|^2/|r| remains.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    u = _normalizers(r)
    y1, y2 = effective_observations(z, r)
    return np.conj(u) * (y1 - 1j * sign * y2)


def build_measurement_matrix(u, phi: float) -> np.ndarray:
    """Real 2x2 matrices mapping (Re s, Im s) to the two effective observations.

    Rows are [Re u, -Im u] and [Re(u e^{j phi}), -Im(u e^{j phi})]; the
    determinant is -sin(phi) for unit-modulus u.  Broadcasts over u: an
    array of phase normalizers of shape S gives shape S + (2, 2).
    """
    u = np.asarray(u, dtype=complex)
    rot = u * np.exp(1j * phi)
    a = np.empty(u.shape + (2, 2))
    a[..., 0, 0] = u.real
    a[..., 0, 1] = -u.imag
    a[..., 1, 0] = rot.real
    a[..., 1, 1] = -rot.imag
    return a


def reconstruct_general(z: Readouts, r: np.ndarray, phi: float) -> np.ndarray:
    """Estimate s_hat from the readouts z = (z1, z2) taken at offset phi.

    Within 1e-12 of a quarter turn this is the closed form
    (`reconstruct_optimal`). Elsewhere it solves the per-receiver 2x2 system
    a_m @ [Re s_m, Im s_m] = [y1_m, y2_m] by least squares; conditioning
    degrades as 1/sin^2(phi), so offsets with |sin phi| below SIN_PHI_TOL
    are rejected outright. A stack of trials, readouts and r of shape
    (..., M), is one call over all of its receivers.
    """
    if abs(abs(phi) - np.pi / 2) < 1e-12:
        return reconstruct_optimal(z, r, 1 if phi > 0 else -1)
    if abs(np.sin(phi)) < SIN_PHI_TOL:
        raise SingularOffsetError(f"phi={phi} gives a singular measurement matrix")
    u = _normalizers(r)
    rhs = np.stack(effective_observations(z, r), axis=-1)
    sol = np.linalg.solve(build_measurement_matrix(u, phi), rhs[..., None])[..., 0]
    return sol[..., 0] + 1j * sol[..., 1]


def predicted_trace(phi: float, u_mod: float = 1.0) -> float:
    """Trace of the inverse Gram matrix of the projections: 2/(u_mod^2 sin^2 phi).

    This is the least-squares error amplification factor; it is minimized at
    phi = +-pi/2 where it equals 2/u_mod^2.
    """
    s = np.sin(phi)
    if abs(s) < SIN_PHI_TOL:
        raise SingularOffsetError(f"phi={phi} gives a singular measurement matrix")
    return 2.0 / (u_mod**2 * s**2)


def predicted_mse(phi: float, sigma_v_sq: float) -> float:
    """Predicted reconstruction MSE per receiver: sigma_v_sq / sin^2(phi).

    Each effective observation carries the real projection of circular noise,
    variance sigma_v_sq/2, so the LS error is (sigma_v_sq/2) * predicted_trace.
    At phi = +-pi/2 this equals sigma_v_sq: no noise amplification.
    """
    return 0.5 * sigma_v_sq * predicted_trace(phi, 1.0)
