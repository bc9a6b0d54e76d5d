"""Symbol detection: exact ML, zero-forcing, and the one-slot baseline.

Both ML searches index candidate vectors in mixed-radix order with the first
user's index varying fastest, and ties resolve to the lowest candidate index,
so results are reproducible down to degenerate inputs. `ml_single_shot`
scores all J^N candidates; `ml_linear` finds the same minimizer by meeting
in the middle, from two half-lattices of about sqrt(J^N) candidates each.
Both run on stacks of trials (`ml_linear_stacked`, `ml_single_shot_stacked`);
the one-trial functions are views of those, and a trial's result does not
depend on the trials stacked with it.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, quantize

DEFAULT_SEARCH_BUDGET = 1 << 24
_LATTICE = 1 << 16  # ml_single_shot candidates per block; smaller lattices are scored whole
_SCREEN = 1 << 14  # ml_linear scores per block: 128 KB stays in cache and on the heap
_STACK = 1 << 15  # floats (256 KB) of per-trial tables that one stacked step builds

COND_LIMIT = 1e12
_EPS = np.finfo(float).eps


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


def _candidates(c: Constellation, n: int, index: np.ndarray) -> np.ndarray:
    """Candidate symbol vectors of the given indices: digit n of index t is (t // J^n) % J."""
    return c.points[(index[:, None] // c.order ** np.arange(n)) % c.order]


_block_cache: dict[tuple, np.ndarray] = {}


def _lattice(c: Constellation, n: int) -> np.ndarray:
    """All J^n candidate vectors of n users as one cached, read-only block."""
    key = (n, c.points.tobytes())
    block = _block_cache.get(key)
    if block is None:
        if len(_block_cache) >= 16:
            _block_cache.clear()
        block = _candidates(c, n, np.arange(c.order**n))
        block.flags.writeable = False
        _block_cache[key] = block
    return block


def _residual_norms(s_hat: np.ndarray, H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """||s_hat - H x||^2 for each row x of X, in real arithmetic without BLAS.

    s_hat (M,) and H (M, N) serve every row; stacks s_hat (rows, M) and
    H (rows, M, N) give each row its own. Each value is the same fixed
    sequence of rounded real operations on its own row, so its bits do not
    depend on how many rows are scored at once, nor on whether they share H.
    """
    m, n = H.shape[-2:]
    h = H.reshape(-1, m, n).T  # (N, M, 1 or rows)
    hr, hi = h.real[:, None], h.imag[:, None]
    xr, xi = X.real.T[:, None, None, :], X.imag.T[:, None, None, :]
    # hx[j, 0], hx[j, 1]: real and imaginary parts of h_j x_j, (N, 2, M, rows)
    hx = np.concatenate([hr, hi], axis=1) * xr
    hx += np.concatenate([-hi, hr], axis=1) * xi
    s = s_hat.reshape(-1, m).T
    d = np.stack([s.real, s.imag]) - hx[0]
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

    The one-trial view of `ml_linear_stacked`, which has the method.
    """
    return ml_linear_stacked(np.asarray(s_hat)[None], np.asarray(H)[None], c)[0]


def ml_linear_stacked(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """`ml_linear` of each trial of a stack: s_hat (T, M) and H (T, M, N)
    give x_hat (T, N), every row what its trial gives alone.

    Meet in the middle: x = (x_a, x_b), where x_a holds the first
    na = ceil(N/2) users (the fastest-varying digits), so the candidate index
    is a + J^na * b. With R_a = s_hat - H_a x_a and P_b = H_b x_b, the
    metric of (a, b) is ||R_a||^2 + ||P_b||^2 - 2 Re<R_a, P_b>. For a chunk
    of b rows, one real matrix product of [P_b, ||P_b||^2, 1] with
    [-2 R_a, 1, ||R_a||^2] screens all of these scores at once.

    The screen reassociates the sums, so it can move a score by a few ulps
    and split an exact tie. The candidates whose screened score lies within
    ``tol`` of their trial's screened minimum are therefore rescored by
    ``_residual_norms``, and the lowest index among the exact minima wins;
    a trial with a single such candidate needs no rescoring. With
    B = ||s_hat|| + max|x| sum_j ||h_j||, every R_a, P_b and s_hat - Hx
    has norm at most B. First-order rounding bounds put the screened value
    within (6M + 2N + 12) eps B^2 of the exact metric and the rescored one
    within (M + 2N + 4) eps B^2, so an exact minimum screens within twice
    their sum of the screened minimum, and tol = 16 (M + N + 2) eps B^2
    exceeds that. The winner thus depends only on the bits of s_hat and H,
    not on how the screen was computed or how many trials were stacked.

    Trials are screened in blocks of at most _SCREEN scores: several whole
    small screens at once, or a large screen in slices of b rows, each
    pruned against the trial's running minimum. The tables R_a and P_b are
    built for up to _STACK floats' worth of trials at a time.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    trials, m, n = H.shape
    _candidate_count(c, n)
    na = (n + 1) // 2
    xa, xb = _lattice(c, na), _lattice(c, n - na)
    width = len(xa)
    rows = min(len(xb), max(1, _SCREEN // width))  # b rows per screen block
    per = max(1, _SCREEN // (rows * width))  # trials per block; > 1 only if rows == len(xb)
    group = max(per, _STACK // ((len(xa) + len(xb)) * (2 * m + 2)))
    s_abs, h_abs = np.abs(s_hat), np.abs(H)
    bound = (np.sqrt(np.einsum("ti,ti->t", s_abs, s_abs)) + np.abs(c.points).max()
             * np.sqrt(np.einsum("tij,tij->tj", h_abs, h_abs)).sum(axis=-1))
    tol = 16 * (m + n + 2) * _EPS * bound**2
    best = np.full(trials, np.inf)
    kept_trial, kept_index, kept_score = [], [], []
    for g in range(0, trials, group):
        h = H[g : g + group]
        ra = (s_hat[g : g + group, None] - xa @ h[:, :, :na].transpose(0, 2, 1)).view(float)
        pb = (xb @ h[:, :, na:].transpose(0, 2, 1)).view(float)
        left = np.concatenate(
            [pb, np.einsum("tij,tij->ti", pb, pb)[..., None], np.ones(pb.shape[:2] + (1,))],
            axis=-1)
        right = np.empty((len(h), 2 * m + 2, width))  # stored transposed: a contiguous operand
        right[:, : 2 * m] = -2.0 * ra.transpose(0, 2, 1)
        right[:, 2 * m] = 1.0
        right[:, -1] = np.einsum("tij,tij->ti", ra, ra)
        for t0 in range(g, g + len(h), per):
            t1 = min(t0 + per, g + len(h))
            low_best, tol_t = best[t0:t1], tol[t0:t1]  # views: best updates in place
            for lo in range(0, len(xb), rows):
                scores = left[t0 - g : t1 - g, lo : lo + rows] @ right[t0 - g : t1 - g]
                low = scores.min(axis=(1, 2))
                cut = np.minimum(low, low_best) + tol_t
                if (low <= cut).any():  # else no score of the block is near a minimum
                    hits = (scores.reshape(t1 - t0, -1) <= cut[:, None]).ravel().nonzero()[0]
                    t, k = np.divmod(hits, scores[0].size)
                    kept_trial.append(t0 + t)
                    kept_index.append(lo * width + k)
                    kept_score.append(scores.ravel()[hits])
                    np.minimum(low_best, low, out=low_best)
    # kept pairs run in trial order, and in index order within a trial
    trial = np.concatenate(kept_trial)
    index = np.concatenate(kept_index)
    near = np.concatenate(kept_score) <= best[trial] + tol[trial]
    trial, index = trial[near], index[near]
    first = trial.searchsorted(np.arange(trials))  # each trial's first (lowest-index) pair
    tied = np.diff(first, append=len(trial)) > 1
    if tied.any():  # a lone near candidate is the minimizer; rescore the others
        pair = tied[trial]
        cand = _candidates(c, n, index[pair])
        metric = _residual_norms(s_hat[trial[pair]], H[trial[pair]], cand)
        # a stable sort by (trial, metric) puts each trial's lowest-index exact minimum first
        order = np.lexsort((metric, trial[pair]))
        index[first[tied]] = index[pair][order[trial[pair].searchsorted(np.flatnonzero(tied))]]
    return _candidates(c, n, index[first])


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
    fall to the lowest candidate index. The one-trial view of
    `ml_single_shot_stacked`.
    """
    return ml_single_shot_stacked(
        np.asarray(z)[None], np.asarray(H)[None], np.asarray(r)[None], c
    )[0]


def ml_single_shot_stacked(z: np.ndarray, H: np.ndarray, r: np.ndarray,
                           c: Constellation) -> np.ndarray:
    """`ml_single_shot` of each trial of a stack: z and r (T, M) and
    H (T, M, N) give x_hat (T, N).

    Lattices of up to _LATTICE candidates are scored whole, for as many
    trials at once as fit _STACK floats; larger ones one trial at a time, in
    blocks of _LATTICE candidates. A metric has no tolerance behind it, so
    each one is computed as the one-trial product cand @ H.T would be: per
    trial the same BLAS product, and the squared norm of each row on its own.
    """
    H = np.asarray(H)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r)
    trials, m, n = H.shape
    count = _candidate_count(c, n)
    block = min(count, _LATTICE)
    per = max(1, _STACK // (2 * block * m))
    best_index = np.empty(trials, dtype=np.int64)
    for t0 in range(0, trials, per):
        t1 = min(t0 + per, trials)
        lows, found = [], []  # each block's minimum and its index, per trial
        for lo in range(0, count, block):
            if block == count:
                cand = _lattice(c, n)
            else:
                cand = _candidates(c, n, np.arange(lo, min(lo + block, count)))
            s = cand @ H[t0:t1].transpose(0, 2, 1)
            s += r[t0:t1, None]
            d = np.abs(s)
            d -= z[t0:t1, None]
            rows = d.reshape(-1, m)
            metrics = np.einsum("ij,ij->i", rows, rows).reshape(t1 - t0, -1)
            k = metrics.argmin(axis=1)
            lows.append(metrics[np.arange(t1 - t0), k])
            found.append(lo + k)
        # argmin keeps the first block of a tie, which holds the lower index
        best = np.argmin(lows, axis=0) if len(found) > 1 else 0
        best_index[t0:t1] = np.array(found)[best, np.arange(t1 - t0)]
    return _candidates(c, n, best_index)
