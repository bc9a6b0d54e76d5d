"""Symbol detection: exact ML, zero-forcing, and the one-slot baseline.

Both ML searches index candidate vectors in mixed-radix order with the first
user's index varying fastest, and ties resolve to the lowest candidate index,
so results are reproducible down to degenerate inputs. `ml_single_shot`
scores all J^N candidates. `ml_linear` finds the same minimizer from one
R-only QR per trial, the QR that `zf_linear` solves with: it splits each
candidate into halves x_a and x_b of about sqrt(J^N) choices each, bounds
from below every candidate that holds a given x_b, and screens against all
x_a only the x_b that can still win. Both ML searches run on stacks of
trials (`ml_linear_stacked`, `ml_single_shot_stacked`); the one-trial
functions are views of those, and a trial's result does not depend on the
trials stacked with it.
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
_FMAX = np.finfo(float).max


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


def _qr_r(s_hat: np.ndarray, H: np.ndarray) -> np.ndarray:
    """R of the R-only Householder QR of [H | s_hat], for each trial of a
    stack: s_hat (T, M) and H (T, M, N) give R (T, K, N + 1), K = min(M, N + 1).

    [H | s_hat] = QR with orthonormal Q, so ||s_hat - Hx|| = ||R[:, N] - R[:, :N] x||
    for every x, and Q is never formed.
    """
    return np.linalg.qr(np.concatenate([H, s_hat[..., None]], axis=-1), mode="r")


def ml_linear_stacked(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """`ml_linear` of each trial of a stack: s_hat (T, M) and H (T, M, N)
    give x_hat (T, N), every row what its trial gives alone.

    Split x = (x_a, x_b), where x_a holds the first na = ceil(N/2) users (the
    fastest-varying digits), so the candidate index is a + J^na * b. One
    R-only QR per trial (`_qr_r`) gives R (K, N + 1); with c = R[:, N] the
    metric is ||c - R[:, :N] x||^2. Rows na and below of R read x_b alone, so
    their part, lb(b) = ||c_b - R_bb x_b||^2 (0 when K <= na), bounds every
    candidate that holds x_b. With u_b = c_a - R_ab x_b and v_a = R_aa x_a
    from the rows above, the metric of (a, b) is
    lb(b) + ||u_b||^2 + ||v_a||^2 - 2 Re<u_b, v_a>, so one real matrix product
    of [u_b, ||u_b||^2 + lb(b), 1] with [-2 v_a, 1, ||v_a||^2], at most 2 na + 2
    deep, scores a block of them.

    The search has two stages. Each trial's lowest-bound x_b is screened
    against every x_a, which sets the trial's best. Then every x_b with
    lb(b) <= best + tol is screened, in blocks of at most _SCREEN scores
    (several trials at once when their live x_b are few, else slices of one
    trial's), each pruned against its trial's running best. The tables are
    built for up to _STACK floats' worth of trials at a time.

    With B = ||s_hat|| + max|x| sum_j ||h_j||, every s_hat - Hx has norm at
    most B. Householder QR is backward stable: the computed R is the exact R
    of [H + dH | s_hat + ds], with ||dh_j|| <= g ||h_j||, ||ds|| <= g ||s_hat||
    and g = k M (N + 1) eps for a small constant k (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 19.4). So its exact metric is
    within 3 g B^2 of ||s_hat - Hx||^2. R keeps the perturbed column norms,
    so u_b, v_a and the rows of lb have norm at most (1 + g) B, and
    first-order rounding bounds put the screened value within
    (6M + 2N + 12) eps B^2 of that, as for a screen over M rows; the
    rescore by `_residual_norms` is within (M + 2N + 4) eps B^2. With d the
    sum of these three, an exact minimum screens within 2d of any screened
    score, and its lb(b) within 3d, since the screen adds the nonnegative
    ||u_b - v_a||^2 to lb(b). tol = 256 (M (N + 1) + M + N + 2) eps B^2
    exceeds 3d for any k up to 16, so neither a pruned x_b nor a dropped
    score holds an exact minimum; a wider tol costs only a few more
    survivors.

    The candidates whose screened score lies within tol of their trial's
    screened minimum are rescored by `_residual_norms` on (s_hat, H), and the
    lowest index among the exact minima wins; a trial with a single such
    candidate needs no rescoring. The winner thus depends only on the bits of
    s_hat and H, not on how the screen was computed or how many trials were
    stacked.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    trials, m, n = H.shape
    _candidate_count(c, n)
    na = (n + 1) // 2
    xa, xb = _lattice(c, na), _lattice(c, n - na)
    width = len(xa)
    s_abs, h_abs = np.abs(s_hat), np.abs(H)
    bound = (np.sqrt(np.einsum("ti,ti->t", s_abs, s_abs)) + np.abs(c.points).max()
             * np.sqrt(np.einsum("tij,tij->tj", h_abs, h_abs)).sum(axis=-1))
    tol = 256 * (m * (n + 1) + m + n + 2) * _EPS * bound**2
    R = _qr_r(s_hat, H)
    k = R.shape[1]
    ka = min(na, k)  # rows of R that read x_a; the other rows read x_b alone
    depth = 2 * ka + 2
    group = max(1, _STACK // ((len(xa) + len(xb)) * depth))
    best = np.full(trials, np.inf)
    kept_trial, kept_index, kept_score = [], [], []
    for g in range(0, trials, group):
        r = R[g : g + group]
        tg = np.arange(len(r))
        # y = c - R_b x_b of every x_b, as floats: the rows that read x_a (u), then the rest
        pb = xb @ r[..., na:n].transpose(2, 0, 1).reshape(n - na, len(r) * k)
        y = (r[..., n] - pb.reshape(len(xb), len(r), k)).view(float)
        u, d = y[..., : 2 * ka], y[..., 2 * ka :]
        lb = np.einsum("jti,jti->tj", d, d)  # each x_b's bound: (T, J^nb)
        left = np.empty((len(r), len(xb), depth))
        left[..., :-2] = u.transpose(1, 0, 2)
        left[..., -2] = np.einsum("jti,jti->tj", u, u) + lb
        left[..., -1] = 1.0
        va = xa @ r[:, :ka, :na].transpose(2, 0, 1).reshape(na, len(r) * ka)
        v = va.reshape(len(xa), len(r), ka).view(float)
        right = np.empty((len(r), depth, width))  # stored transposed: a contiguous operand
        right[:, :-2] = -2.0 * v.transpose(1, 2, 0)
        right[:, -2] = 1.0
        right[:, -1] = np.einsum("jti,jti->tj", v, v)
        # stage 1: every x_a with each trial's lowest-bound x_b sets its best
        best[g : g + len(r)] = (left[tg, lb.argmin(axis=1), None] @ right).min(axis=(1, 2))
        # stage 2: only the x_b whose bound can still beat the best
        live = lb <= (best[g : g + len(r)] + tol[g : g + len(r)])[:, None]
        count = live.sum(axis=1)
        b = np.argsort(~live, axis=1, kind="stable")[:, : count.max()]  # live x_b first
        screen = left[tg[:, None], b]
        # rows past a trial's live x_b score above any cut, so the pairs kept
        # are live ones, in index order
        if count.min() < b.shape[1]:
            screen[np.arange(b.shape[1]) >= count[:, None]] = [0.0] * (depth - 2) + [_FMAX, 0.0]
        rows = min(b.shape[1], max(1, _SCREEN // width))  # b rows per screen block
        per = max(1, _SCREEN // (rows * width))  # trials per screen block
        for t0 in range(0, len(r), per):
            t1 = min(t0 + per, len(r))
            low_best, tol_t = best[g + t0 : g + t1], tol[g + t0 : g + t1]  # views
            for lo in range(0, count[t0:t1].max(), rows):
                scores = screen[t0:t1, lo : lo + rows] @ right[t0:t1]
                low_s = scores.min(axis=(1, 2))
                cut = np.minimum(low_s, low_best) + tol_t
                hits = (scores.reshape(t1 - t0, -1) <= cut[:, None]).ravel().nonzero()[0]
                t, row = np.divmod(hits, scores[0].size)
                row, a = np.divmod(row, width)
                kept_trial.append(g + t0 + t)
                kept_index.append(b[t0 + t, lo + row] * width + a)
                kept_score.append(scores.ravel()[hits])
                np.minimum(low_best, low_s, out=low_best)
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
    """Least-squares equalization followed by per-element quantization.

    The least-squares x solves R[:N, :N] x = R[:N, N] from the R-only QR of
    [H | s_hat] (`_qr_r`), so its error grows with cond(H), not cond(H)^2 as
    the normal equations' would. The SVD guard refuses cond(H) > COND_LIMIT.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    M, n = H.shape
    if n > M:
        raise ValueError(f"underdetermined channel: N={n} > M={M}")
    sv = np.linalg.svd(H, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] > COND_LIMIT * sv[-1]:
        raise IllConditionedChannelError("channel condition number exceeds 1e12")
    r = _qr_r(s_hat[None], H[None])[0]
    return quantize(np.linalg.solve(r[:n, :n], r[:n, n]), c)


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
