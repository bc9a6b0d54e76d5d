"""Reference implementations that tests compare the package against.

`build_measurement_matrix` and `lapack_reconstruct` recover s_hat by an
explicit per-receiver 2x2 LAPACK solve of the first-order model, the way
`reconstruct_general` did before it took its closed form at every offset.
`effective_observations` is the readouts less |r|, through the subtraction
and shape check that both reconstructions run. `draw_bits` is one trial's
fair bits as numpy's generator draws them, which the stacked draws read from
raw Philox words. `exhaustive_ml` scores every one of the J^N candidates
that the tree search of `ml_linear` prunes.
"""

import functools

import numpy as np

from ramimo.constellation import make_qam
from ramimo.detect import _residual_norms
from ramimo.reconstruct import _effective


def draw_bits(count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` fair bits (int64 zeros and ones)."""
    return rng.integers(0, 2, count)


@functools.lru_cache(maxsize=8)
def all_candidates(order, n):
    """All J^N candidates in mixed-radix order, first user's index fastest."""
    digits = (np.arange(order**n)[:, None] // order ** np.arange(n)) % order
    cand = make_qam(order).points[digits]
    cand.flags.writeable = False
    return cand


def exhaustive_ml(s_hat, H, c):
    """Oracle minimizer: score all J^N candidates with ml_linear's rescoring helper.

    The helper scores each row on its own, so scoring in cache-sized slices
    gives the same bits; np.argmin keeps the lowest index among exact minima.
    """
    s_hat, H = np.asarray(s_hat, dtype=complex), np.asarray(H, dtype=complex)
    cand = all_candidates(c.order, H.shape[1])
    metrics = np.concatenate(
        [_residual_norms(s_hat, H, cand[lo : lo + 4096]) for lo in range(0, len(cand), 4096)]
    )
    return cand[int(np.argmin(metrics))]


def effective_observations(z, r) -> tuple[np.ndarray, np.ndarray]:
    """Effective observations (y1, y2): the readouts z = (z1, z2) less the
    reference magnitude |r|; a shape mismatch raises ValueError."""
    return _effective(z, np.abs(np.asarray(r)))


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


def lapack_reconstruct(z, r, phi: float) -> np.ndarray:
    """s_hat from an explicit per-receiver 2x2 solve of the first-order model."""
    rhs = np.stack([z[0] - np.abs(r), z[1] - np.abs(r)], axis=-1)[..., None]
    sol = np.linalg.solve(build_measurement_matrix(np.conj(r) / np.abs(r), phi), rhs)
    return sol[..., 0, 0] + 1j * sol[..., 1, 0]
