"""Symbol detection: exact ML, zero-forcing, and the one-slot baseline.

Both ML searches index candidate vectors in mixed-radix order with the first
user's index varying fastest, and ties resolve to the lowest candidate index,
so results are reproducible down to degenerate inputs. `ml_single_shot`
scores all J^N candidates. `ml_linear` finds the same minimizer from one
R-only QR per trial, the QR that `zf_linear` solves with: a tree search
assigns the users from the last to the first, row by row of the triangular
R, and drops every branch whose metric so far exceeds the best complete
candidate's (Agrell, Eriksson, Vardy and Zeger, "Closest point search in
lattices", IEEE T-IT 2002). Both ML searches run on stacks of trials
(`ml_linear_stacked`, `ml_single_shot_stacked`); the one-trial functions are
views of those, and a trial's result does not depend on the trials stacked
with it.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, quantize

DEFAULT_SEARCH_BUDGET = 1 << 24
_LATTICE = 1 << 16  # ml_single_shot candidates per block
_STACK = 1 << 15  # floats (256 KB) of tables or search nodes that one stacked step builds

COND_LIMIT = 1e12
_EPS = np.finfo(float).eps


class SearchBudgetError(ValueError):
    """Candidate count J^N exceeds the enumeration budget, DEFAULT_SEARCH_BUDGET."""


class IllConditionedChannelError(ValueError):
    """Channel matrix is rank deficient or numerically near-singular."""


def candidate_count(order: int, n: int) -> int:
    """J^N candidates of an ML search over n users of an order-J alphabet;
    SearchBudgetError if they exceed DEFAULT_SEARCH_BUDGET."""
    count = order**n
    if count > DEFAULT_SEARCH_BUDGET:
        raise SearchBudgetError(
            f"{order}^{n} = {count} candidates exceed the budget of {DEFAULT_SEARCH_BUDGET}"
        )
    return count


def check_determined(m: int, n: int) -> None:
    """ValueError unless zero-forcing can separate n users on m receivers (n <= m)."""
    if n > m:
        raise ValueError(f"underdetermined channel: N={n} > M={m}")


def _candidates(c: Constellation, n: int, index: np.ndarray) -> np.ndarray:
    """Candidate symbol vectors of the given indices: digit n of index t is (t // J^n) % J."""
    return c.points[(index[:, None] // c.order ** np.arange(n)) % c.order]


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
    # the zeroed lower triangle is read: the bound's reach sums |R_rj| over
    # every j < i, j < r included, and tol scales with ||R||_F
    return np.linalg.qr(np.concatenate([H, s_hat[..., None]], axis=-1), mode="r")


def _children(i: int, u: np.ndarray, metric: np.ndarray, prod: np.ndarray):
    """The J children of P nodes at user i, from the nodes' residuals u
    (P, rows) and metrics (P,) and user i's products prod (P, J, >= rows):
    the children's partial metrics (P, J), and their residuals w = u - prod
    (P, J, rows), whose rows below i are what each child passes on.

    A child's metric is its parent's plus |w_i|^2, or the parent's alone
    where no row of R has its diagonal at user i.
    """
    w = u[:, None] - prod[..., : u.shape[1]]
    if i >= u.shape[1]:
        return np.broadcast_to(metric[:, None], w.shape[:2]), w
    d = w[..., i]
    part = d.real * d.real
    part += d.imag * d.imag
    part += metric[:, None]
    return part, w


def ml_linear_stacked(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """`ml_linear` of each trial of a stack: s_hat (T, M) and H (T, M, N)
    give x_hat (T, N), every row what its trial gives alone.

    One R-only QR per trial (`_qr_r`) gives R (K, N + 1), K = min(M, N + 1);
    with c = R[:, N] the metric is ||c - R[:, :N] x||^2, the sum over rows r
    of |c_r - sum_{j >= r} R_rj x_j|^2. Row r reads users r and up only, so
    a tree that assigns users N - 1, ..., 0 in turn completes row r when it
    assigns user r. A node's partial metric is the sum over its completed
    rows, starting from |c_N|^2, the row that reads no x when K = N + 1; a
    user i >= K completes no row, adds 0 and keeps all J branches.

    Each trial first descends to its successive-quantization (Babai) point,
    the child of least partial metric at every level; that point's metric
    is the trial's radius. The tree then runs breadth first, a block of at
    most _STACK floats' worth of nodes per step, and a child survives while
    its partial metric is at most radius + tol. Blocks run depth first, so
    leaves arrive early and each lowers its trial's radius to its metric.
    Where the survivors of a step fill more than one block, each is also
    charged a lower bound on the rows it has not completed: row r < i moves
    by at most S_r = max|x| sum_{j < i} |R_rj| over users 0..i-1, so it adds
    at least max(0, |w_r| - S_r)^2, w_r being the row's residual so far.
    At low SNR this keeps the tree from growing to J^N nodes.

    With B = ||s_hat|| + max|x| sum_j ||h_j||, every s_hat - Hx has norm at
    most B. Householder QR is backward stable: the computed R is the exact R
    of [H + dH | s_hat + ds], with ||dh_j|| <= g ||h_j||, ||ds|| <= g ||s_hat||
    and g = k M (N + 1) eps for a small constant k (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 19.4). So its exact metric f'(x)
    is within 3 g B^2 of f(x) = ||s_hat - Hx||^2. R keeps the perturbed
    column norms, so the row sizes A_r = |c_r| + max|x| sum_j |R_rj| have
    sum A_r^2 <= (1 + g)^2 B^2. Row r's residual rounds to within
    (N + 3) eps A_r (one rounded product and subtraction per user), its
    square to within (2N + 10) eps A_r^2, and the running sum of at most
    K + 1 rows adds (K + 1) eps of itself: a computed partial metric is
    within (2N + M + 11) eps B^2 of the exact partial on R, to first order.
    The exact partial is at most f'(x), and max(0, |w_r| - S_r) at most the
    row's exact final residual, so with their own rounding a computed
    partial metric plus bound is at most f'(x) + (6N + 2M + 25) eps B^2.
    `_residual_norms`, which rescores, is within (M + 2N + 4) eps B^2 of f.
    Chaining these from an exact minimizer x* (least rescored metric) to the
    candidate y whose computed metric set the radius, x*'s computed partial
    metric, with or without the bound, is at most that metric plus
    D = (6 k M (N + 1) + 5M + 12N + 44) eps B^2 at every level. B^2 is at
    most (N + 1) max(1, max|x|)^2 ||[H | s_hat]||_F^2 (Cauchy-Schwarz), and
    that Frobenius norm is within a factor 1 + g of R's, so
    tol = 256 (M (N + 1) + M + N + 2) (N + 1) max(1, max|x|)^2 eps ||R||_F^2
    exceeds D for any k up to 16: no step drops an exact minimizer, and each
    lies within tol of its trial's least leaf metric.

    The leaves within tol of their trial's least leaf metric are kept. A
    trial left with one such leaf takes it as it is; the leaves of the
    others are rescored by `_residual_norms` on (s_hat, H), and the lowest
    index among the exact minima wins. The winner thus depends only on the
    bits of s_hat and H, not on how the tree was cut into blocks or how many
    trials were stacked.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    trials, m, n = H.shape
    order = c.order
    candidate_count(order, n)
    R = _qr_r(s_hat, H)
    k = R.shape[1]
    rv = R.view(float)
    top_x = np.abs(c.points).max()
    tol = (256 * (m * (n + 1) + m + n + 2) * (n + 1) * max(1.0, top_x) ** 2 * _EPS
           * np.einsum("tij,tij->t", rv, rv))
    if not np.isfinite(tol).all():  # a NaN or inf metric would prune every branch
        raise ValueError("s_hat and H must be finite")
    group = max(1, _STACK // (2 * n * order * k))  # trials whose products one step holds
    per = max(1, _STACK // (order * (2 * k + 4)))  # nodes whose children one step holds
    radius = np.empty(trials)
    found = []  # (trial, index, metric) of each block of surviving leaves
    for g in range(0, trials, group):
        r = R[g : g + group]
        t = np.arange(len(r))
        # prod[i, t, a, j] = R_ji x_a: what user i at point a takes from row j
        prod = r[:, :, :n].transpose(2, 0, 1)[:, :, None] * c.points[:, None]
        root = np.abs(r[:, n, n]) ** 2 if k > n else np.zeros(len(r))  # the row that reads no x
        top = _children(n - 1, r[:, : min(n, k), n], root, prod[n - 1])
        part, w = top  # descend to the Babai point
        first = order * t  # each trial's first child, as a flat index
        for i in range(n - 1, 0, -1):
            q = part.argmin(axis=1) + first  # each trial's best child
            u = w.reshape(-1, w.shape[2]).take(q, axis=0)[:, : min(i, k)]
            part, w = _children(i - 1, u, part.ravel().take(q), prod[i - 1])
        best = radius[g : g + len(r)]
        best[:] = part.min(axis=1)
        lim = best + tol[g : g + len(r)]
        reach = None
        # a step pops nodes at user i with their children's (metrics, residuals)
        # if already built; the root's are the Babai descent's first level
        stack = [(n - 1, t, None, None, np.zeros(len(r), dtype=np.int64), top)]
        while stack:
            i, t, u, metric, index, kids = stack.pop()
            if kids is None:
                if len(t) > per:  # split into blocks, the first on top
                    stack += [(i, t[lo : lo + per], u[lo : lo + per], metric[lo : lo + per],
                               index[lo : lo + per], None)
                              for lo in range((len(t) - 1) // per * per, -1, -per)]
                    continue
                kids = _children(i, u, metric, prod[i].take(t, axis=0))
            part, w = kids
            q = (part <= lim.take(t)[:, None]).ravel().nonzero()[0]
            p, a = np.divmod(q, order)
            t, metric, index = t.take(p), part.ravel().take(q), index.take(p) * order + a
            if i:
                rows = min(i, k)
                u = w.reshape(-1, w.shape[2]).take(q, axis=0)[:, :rows]
                if len(q) > per:  # more than a block: charge the rows not yet completed
                    if reach is None:  # reach[l, t, j]: S_j of row j while users 0..l are open
                        reach = np.cumsum(np.abs(r[:, :, :n]), axis=2).transpose(2, 0, 1) * top_x
                    gap = np.abs(u) - reach[i - 1].take(t, axis=0)[:, :rows]
                    np.maximum(gap, 0.0, out=gap)
                    gap *= gap
                    keep = (metric + gap.sum(axis=1) <= lim.take(t)).nonzero()[0]
                    t, metric, index, u = t[keep], metric[keep], index[keep], u[keep]
                stack.append((i - 1, t, u, metric, index, None))
            else:
                found.append((t + g, index, metric))
                if stack:  # lower the radius for the blocks still to come
                    np.minimum.at(best, t, metric)
                    np.add(best, tol[g : g + len(r)], out=lim)
    # leaves run in trial order within a block, and blocks in no set order
    trial, index, metric = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
    if len(trial) > trials:  # keep the leaves within tol of their trial's least metric
        np.minimum.at(radius, trial, metric)
        near = metric <= radius[trial] + tol[trial]
        trial, index = trial[near], index[near]
    if len(trial) > trials:  # some trial has tied leaves
        index = _tie_break(s_hat, H, c, trial, index)
    elif len(found) > 1:  # one leaf per trial: each is its trial's minimizer
        index = index[np.argsort(trial, kind="stable")]
    return _candidates(c, n, index)


def _tie_break(s_hat, H, c, trial, index) -> np.ndarray:
    """Each trial's lowest-index exact minimizer among its near leaves
    (trial[i], index[i]), every trial holding at least one: a lone near
    leaf as it is, several rescored by `_residual_norms` on (s_hat, H)."""
    by = np.lexsort((index, trial))
    trial, index = trial[by], index[by]
    first = trial.searchsorted(np.arange(len(s_hat)))  # each trial's lowest-index near leaf
    tied = np.diff(first, append=len(trial)) > 1
    pair = tied[trial]
    cand = _candidates(c, H.shape[-1], index[pair])
    metric = _residual_norms(s_hat[trial[pair]], H[trial[pair]], cand)
    # a stable sort by (trial, metric) puts each trial's lowest-index exact minimum first
    by = np.lexsort((metric, trial[pair]))
    index[first[tied]] = index[pair][by[trial[pair].searchsorted(np.flatnonzero(tied))]]
    return index[first]


def zf_linear(s_hat: np.ndarray, H: np.ndarray, c: Constellation) -> np.ndarray:
    """Least-squares equalization followed by per-element quantization.

    s_hat (M,) and H (M, N) give x_hat (N,); stacks s_hat (T, M) and
    H (T, M, N) give (T, N), each row what its trial gives alone. The
    least-squares x solves R[:N, :N] x = R[:N, N] from the R-only QR of
    [H | s_hat] (`_qr_r`), so its error grows with cond(H), not cond(H)^2 as
    the normal equations' would. The SVD guard refuses any trial with
    cond(H) > COND_LIMIT.
    """
    H = np.asarray(H)
    s_hat = np.asarray(s_hat, dtype=complex)
    m, n = H.shape[-2:]
    check_determined(m, n)
    sv = np.linalg.svd(H, compute_uv=False)
    if np.any((sv[..., -1] == 0.0) | (sv[..., 0] > COND_LIMIT * sv[..., -1])):
        raise IllConditionedChannelError("channel condition number exceeds 1e12")
    r = _qr_r(s_hat, H)
    return quantize(np.linalg.solve(r[..., :n, :n], r[..., :n, n, None])[..., 0], c)


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

    One walk over the lattice: each block of at most _LATTICE candidates is
    built once and scored for as many trials at once as fit _STACK floats. A
    block's minimum replaces a trial's running one only if strictly lower,
    so ties keep the lowest index. A metric has no tolerance behind it, so
    each one is computed as the one-trial product cand @ H.T would be: per
    trial the same BLAS product, and the squared norm of each row on its own.
    A NaN or inf in z, H or r raises ValueError.
    """
    H = np.asarray(H)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r)
    trials, m, n = H.shape
    count = candidate_count(c.order, n)
    # a NaN metric never compares lower, so every trial would keep candidate 0
    if not (np.isfinite(z).all() and np.isfinite(H).all() and np.isfinite(r).all()):
        raise ValueError("z, H and r must be finite")
    block = min(count, _LATTICE)
    per = max(1, _STACK // (2 * block * m))
    low = np.full(trials, np.inf)
    best_index = np.zeros(trials, dtype=np.int64)
    for lo in range(0, count, block):
        cand = _candidates(c, n, np.arange(lo, min(lo + block, count)))
        for t0 in range(0, trials, per):
            t1 = min(t0 + per, trials)
            s = cand @ H[t0:t1].transpose(0, 2, 1)
            s += r[t0:t1, None]
            d = np.abs(s)
            d -= z[t0:t1, None]
            rows = d.reshape(-1, m)
            metrics = np.einsum("ij,ij->i", rows, rows).reshape(t1 - t0, -1)
            k = metrics.argmin(axis=1)
            metric = metrics[np.arange(t1 - t0), k]
            lower = metric < low[t0:t1]
            low[t0:t1][lower] = metric[lower]
            best_index[t0:t1][lower] = lo + k[lower]
    return _candidates(c, n, best_index)
