"""Symbol detection: exact ML, zero-forcing, and the one-slot baseline.

Both ML searches index candidate vectors in mixed-radix order with the first
user's index varying fastest, and ties resolve to the lowest candidate index,
so results are reproducible down to degenerate inputs. `ml_single_shot`
scores all J^N candidates; `ml_linear` finds the same minimizer by meeting
in the middle, from two half-lattices of about sqrt(J^N) candidates each.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, quantize

DEFAULT_SEARCH_BUDGET = 1 << 24
_CHUNK = 1 << 16
_SCREEN = 1 << 14  # ml_linear scores per block: 128 KB stays in cache and on the heap

COND_LIMIT = 1e12


class SearchBudgetError(ValueError):
    """Candidate count J^N exceeds the enumeration budget, DEFAULT_SEARCH_BUDGET."""


class IllConditionedChannelError(ValueError):
    """Channel matrix is rank deficient or numerically near-singular."""


def _candidate_count(c: Constellation, n: int) -> int:
    count = c.order**n
    if count > DEFAULT_SEARCH_BUDGET:
        raise SearchBudgetError(
            f"{c.order}^{n} = {count} candidates exceed the budget of {DEFAULT_SEARCH_BUDGET}"
        )
    return count


def _candidate_block(c: Constellation, n: int, lo: int, hi: int) -> np.ndarray:
    """Candidate symbol vectors lo..hi-1: digit n of index t is (t // J^n) % J."""
    t = np.arange(lo, hi)[:, None]
    idx = (t // c.order ** np.arange(n)) % c.order
    return c.points[idx]


_block_cache: dict[tuple, np.ndarray] = {}


def _lattice(c: Constellation, n: int) -> np.ndarray:
    """All J^n candidate vectors of n users as one cached, read-only block."""
    key = (n, c.points.tobytes())
    block = _block_cache.get(key)
    if block is None:
        if len(_block_cache) >= 16:
            _block_cache.clear()
        block = _candidate_block(c, n, 0, c.order**n)
        block.flags.writeable = False
        _block_cache[key] = block
    return block


def _iter_candidates(c: Constellation, n: int, count: int):
    """Yield (offset, candidate block); single-block lattices are cached."""
    if count <= _CHUNK:
        yield 0, _lattice(c, n)
    else:
        for lo in range(0, count, _CHUNK):
            yield lo, _candidate_block(c, n, lo, min(lo + _CHUNK, count))


def _residual_norms(s_hat: np.ndarray, H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """||s_hat - H x||^2 for each row x of X, in real arithmetic without BLAS.

    Each value is the same fixed sequence of rounded real operations on its
    own row, so its bits do not depend on how many rows are scored at once.
    """
    m, n = H.shape
    hr, hi = H.real.T[:, None, :, None], H.imag.T[:, None, :, None]
    xr, xi = X.real.T[:, None, None, :], X.imag.T[:, None, None, :]
    # hx[j, 0], hx[j, 1]: real and imaginary parts of h_j x_j, (N, 2, M, rows)
    hx = np.concatenate([hr, hi], axis=1) * xr
    hx += np.concatenate([-hi, hr], axis=1) * xi
    d = np.stack([s_hat.real, s_hat.imag])[:, :, None] - hx[0]
    for j in range(1, n):
        d -= hx[j]
    d *= d
    sq = d[0] + d[1]
    out = sq[0].copy()
    for i in range(1, m):
        out += sq[i]
    return out


def ml_linear(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """Exact minimizer of ||s_hat - Hx||^2 over the symbol lattice.

    Meet in the middle: x = (x_a, x_b), where x_a holds the first
    na = ceil(N/2) users (the fastest-varying digits), so the candidate index
    is a + J^na * b. With R_a = s_hat - H_a x_a and P_b = H_b x_b, the
    metric of (a, b) is ||R_a||^2 + ||P_b||^2 - 2 Re<R_a, P_b>. For a chunk
    of b rows, one real matrix product of [P_b, ||P_b||^2, 1] with
    [-2 R_a, 1, ||R_a||^2] screens all of these scores at once.

    The screen reassociates the sums, so it can move a score by a few ulps
    and split an exact tie. Every candidate whose screened score lies within
    ``tol`` of the screened minimum is therefore rescored by
    ``_residual_norms``, and the lowest index among the exact minima wins.
    With B = ||s_hat|| + max|x| sum_j ||h_j||, every R_a, P_b and s_hat - Hx
    has norm at most B. First-order rounding bounds put the screened value
    within (6M + 2N + 12) eps B^2 of the exact metric and the rescored one
    within (M + 2N + 4) eps B^2, so an exact minimum screens within twice
    their sum of the screened minimum, and tol = 16 (M + N + 2) eps B^2
    exceeds that.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    m, n = H.shape
    _candidate_count(c, n)
    na = (n + 1) // 2
    xa, xb = _lattice(c, na), _lattice(c, n - na)
    ra = (s_hat - xa @ H[:, :na].T).view(float)
    pb = (xb @ H[:, na:].T).view(float)
    left = np.column_stack([pb, np.einsum("ij,ij->i", pb, pb), np.ones(len(pb))])
    right = np.column_stack([-2.0 * ra, np.ones(len(ra)), np.einsum("ij,ij->i", ra, ra)])
    bound = np.linalg.norm(s_hat) + np.abs(c.points).max() * np.linalg.norm(H, axis=0).sum()
    tol = 16 * (m + n + 2) * np.finfo(float).eps * bound**2
    rows = max(1, _SCREEN // len(xa))
    best = np.inf
    kept_index, kept_score = [], []
    for lo in range(0, len(xb), rows):
        scores = left[lo : lo + rows] @ right.T
        low = scores.min()
        if low <= best + tol:
            hits = np.flatnonzero(scores <= low + tol)
            kept_index.append(lo * len(xa) + hits)
            kept_score.append(scores.ravel()[hits])
        if low < best:
            best = low
    index = np.concatenate(kept_index)
    index = index[np.concatenate(kept_score) <= best + tol]
    cand = np.hstack([xa[index % len(xa)], xb[index // len(xa)]])
    return cand[int(np.argmin(_residual_norms(s_hat, H, cand)))]


def zf_linear(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """Pseudo-inverse equalization followed by per-element quantization."""
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    M, n = H.shape
    if n > M:
        raise ValueError(f"underdetermined channel: N={n} > M={M}")
    sv = np.linalg.svd(H, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] > COND_LIMIT * sv[-1]:
        raise IllConditionedChannelError("channel condition number exceeds 1e12")
    gram = H.conj().T @ H
    return quantize(np.linalg.solve(gram, H.conj().T @ s_hat), c)


def ml_single_shot(z: np.ndarray, H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """Exhaustive minimizer of ||z - |Hx + r|||^2 on one slot's amplitudes.

    Amplitude-domain Euclidean distance is the ML surrogate for the
    near-Gaussian effective noise left after linearization; with r = 0 the
    magnitude model cannot separate global phase rotations, and such ties
    fall to the lowest candidate index.
    """
    H = np.asarray(H)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r)
    n = H.shape[1]
    count = _candidate_count(c, n)
    best_metric = np.inf
    best_index = -1
    for lo, cand in _iter_candidates(c, n, count):
        s = cand @ H.T
        s += r
        d = np.abs(s)
        d -= z
        metrics = np.einsum("ij,ij->i", d, d)
        k = int(np.argmin(metrics))
        if metrics[k] < best_metric:
            best_metric = float(metrics[k])
            best_index = lo + k
    return _candidate_block(c, n, best_index, best_index + 1)[0]
