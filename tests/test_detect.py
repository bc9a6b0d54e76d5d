import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramimo import detect
from ramimo.channel import trial_keys
from ramimo.constellation import make_qam, quantize
from ramimo.detect import (
    DEFAULT_SEARCH_BUDGET, IllConditionedChannelError, SearchBudgetError, _residual_norms,
    candidate_count, ml_linear, ml_linear_stacked, ml_single_shot, ml_single_shot_stacked,
    zf_linear,
)
from ramimo.montecarlo import (
    _ROLES, ExperimentConfig, _draws, _recover, _Shared, snr_db_to_sigma_v_sq,
)
from oracles import all_candidates, exhaustive_ml

C4 = make_qam(4)
C16 = make_qam(16)
C64 = make_qam(64)


def _brute_force_ml(s_hat, H, c):
    """Oracle: explicit loops, first user's index varying fastest."""
    n = H.shape[1]
    best = None
    for digits in itertools.product(range(c.order), repeat=n):
        x = c.points[list(digits[::-1])]
        metric = float(np.sum(np.abs(s_hat - H @ x) ** 2))
        if best is None or metric < best[0]:
            best = (metric, x)
    return best


def _assert_matches_oracle(s_hat, H, c):
    assert np.array_equal(ml_linear(s_hat, H, c), exhaustive_ml(s_hat, H, c))


def test_ml_matches_exhaustive_oracle_on_prss_trials():
    # 2 seeds x 3 SNRs x 50 trials = 300 reconstructed 8x4 16-QAM observations
    for seed in (104, ExperimentConfig.master_seed):
        for snr_db in (6.0, 12.0, 18.0):
            s_hat, H = _prss_stack(50, 8, 4, snr_db, seed)
            for t in range(50):
                _assert_matches_oracle(s_hat[t], H[t], C16)


# (1, 3), (2, 4) and (2, 3): K = min(M, N + 1) < N, so users K..N-1 have no
# diagonal row in R, add nothing to the partial metric and keep every branch
@pytest.mark.parametrize("m, n, c", [(4, 3, C4), (6, 5, C4), (3, 1, C4), (2, 1, C16), (4, 2, C64),
                                     (1, 3, C4), (2, 4, C4), (2, 3, C16)])
def test_ml_matches_exhaustive_oracle_odd_and_edge_sizes(m, n, c):
    rng = np.random.default_rng(10 * m + n)
    for _ in range(20):
        H = np.sqrt(0.5 / n) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        x = c.points[rng.integers(0, c.order, n)]
        s_hat = H @ x + 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        _assert_matches_oracle(s_hat, H, c)


def _tie_prone_sizes(draw):
    return draw(st.sampled_from([C4, C16])), draw(st.integers(1, 4)), draw(st.integers(1, 4))


@st.composite
def _tie_prone_instances(draw, sizes=None):
    """Small instances built to hold exact ties: zero and duplicated columns,
    a zero observation, integer-valued channels. sizes fixes (c, n, m)."""
    c, n, m = sizes or _tie_prone_sizes(draw)
    if draw(st.booleans()):
        ints = st.integers(-2, 2)
        H = np.array(draw(st.lists(ints, min_size=2 * m * n, max_size=2 * m * n)), dtype=float)
    else:
        reals = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        H = np.array(draw(st.lists(reals, min_size=2 * m * n, max_size=2 * m * n)))
    H = (H[: m * n] + 1j * H[m * n :]).reshape(m, n)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        H[:, j] = H[:, i]
    if draw(st.booleans()):
        H[:, draw(st.integers(0, n - 1))] = 0.0
    source = draw(st.sampled_from(["zero", "lattice", "integer"]))
    if source == "zero":
        s_hat = np.zeros(m, dtype=complex)
    elif source == "lattice":
        s_hat = H @ c.points[draw(st.lists(st.integers(0, c.order - 1), min_size=n, max_size=n))]
    else:
        parts = draw(st.lists(st.integers(-3, 3), min_size=2 * m, max_size=2 * m))
        s_hat = np.array(parts[:m]) + 1j * np.array(parts[m:])
    return s_hat, H, c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tie_prone_instances())
def test_ml_ties_match_exhaustive_oracle(instance):
    s_hat, H, c = instance
    assert np.array_equal(ml_linear(s_hat, H, c), exhaustive_ml(s_hat, H, c))


@st.composite
def _tie_prone_stacks(draw):
    """Stacks of tie-prone instances of one size, as a chunk of trials."""
    sizes = _tie_prone_sizes(draw)
    stack = draw(st.lists(_tie_prone_instances(sizes), min_size=1, max_size=6))
    return np.array([s for s, _, _ in stack]), np.array([H for _, H, _ in stack]), sizes[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tie_prone_stacks())
def test_stacked_ml_ties_match_exhaustive_oracle_per_trial(stack):
    s_hat, H, c = stack
    got = ml_linear_stacked(s_hat, H, c)
    for t in range(len(H)):
        assert np.array_equal(got[t], exhaustive_ml(s_hat[t], H[t], c)), t


def _prss_stack(trials, m, n, snr_db, seed):
    """Reconstructed s_hat and H of `trials` prss trials, stacked."""
    cfg = ExperimentConfig(m=m, n=n, master_seed=seed, sigma_v_sq=snr_db_to_sigma_v_sq(snr_db))
    draws = _draws(cfg, trial_keys([(seed, 0, trials)], _ROLES["prss"]), _ROLES["prss"])
    shared = _Shared(draws, n)
    return _recover(shared, cfg.rsr_db, shared.noise(cfg.sigma_v_sq), cfg.phi), draws.H


@pytest.mark.parametrize("stack", [64, 2048, 10_000])
def test_stacked_ml_matches_exhaustive_oracle_in_small_blocks(monkeypatch, stack):
    # a small cap splits one trial's nodes into blocks that run one after
    # another (64: one node per block, 2048: 10), lowering the radius as
    # leaves arrive and charging the bound on open rows when a step's
    # survivors fill more than a block; it also splits the trials into
    # groups (64: 1 trial, 2048: 5, 10 000: 26) that build their products apart
    monkeypatch.setattr(detect, "_STACK", stack)
    s_hat, H = _prss_stack(40, 6, 3, 8.0, 44)
    got = ml_linear_stacked(s_hat, H, C16)
    for t in range(len(H)):
        assert np.array_equal(got[t], exhaustive_ml(s_hat[t], H[t], C16)), t
    s_hat, H = _prss_stack(12, 6, 3, -10.0, 45)  # the radius prunes little
    got = ml_linear_stacked(s_hat, H, C16)
    for t in range(len(H)):
        assert np.array_equal(got[t], exhaustive_ml(s_hat[t], H[t], C16)), t


@pytest.mark.parametrize("m, n, c", [(6, 4, C4), (5, 3, C16)])
def test_stacked_ml_matches_exhaustive_oracle_when_every_x_b_survives(m, n, c):
    # zero columns for the last users give all their branches the same
    # partial metric, and noise at 100x the signal leaves the partial
    # metrics' spread far below the radius: either way the radius prunes
    # little until the last levels
    rng = np.random.default_rng(46)
    t = 6
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    x = c.points[rng.integers(0, c.order, (t, n))]
    w = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
    zero_b = H.copy()
    zero_b[:, :, (n + 1) // 2 :] = 0.0
    for H, scale in ((zero_b, 0.3), (H, 100.0)):
        s_hat = np.einsum("tij,tj->ti", H, x) + scale * w
        got = ml_linear_stacked(s_hat, H, c)
        for k in range(t):
            assert np.array_equal(got[k], exhaustive_ml(s_hat[k], H[k], c)), k


def test_stacked_ml_matches_exhaustive_oracle_at_noise_100x_the_signal():
    # 16-QAM 8x4: the partial metrics alone would keep almost all 2^16
    # leaves; the bound on the open rows prunes them
    rng = np.random.default_rng(47)
    t, m, n = 8, 8, 4
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    x = C16.points[rng.integers(0, 16, (t, n))]
    w = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
    s_hat = np.einsum("tij,tj->ti", H, x) + 100.0 * w
    got = ml_linear_stacked(s_hat, H, C16)
    for k in range(t):
        assert np.array_equal(got[k], exhaustive_ml(s_hat[k], H[k], C16)), k


def test_ml_64qam_8x4_noisy_stack_in_bounded_memory():
    # 2^24 candidates per trial at noise 10x the signal: the tree must stay
    # within its blocks, and each row must be what its trial gives alone
    rng = np.random.default_rng(48)
    t, m, n = 6, 8, 4
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    x = C64.points[rng.integers(0, 64, (t, n))]
    w = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
    s_hat = np.einsum("tij,tj->ti", H, x) + 10.0 * w
    tracemalloc.start()
    try:
        got = ml_linear_stacked(s_hat, H, C64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    for k in range(t):
        assert np.array_equal(got[k], ml_linear(s_hat[k], H[k], C64)), k


@pytest.mark.parametrize("lattice", [16, 100, 1 << 16])
def test_stacked_single_shot_matches_one_trial_in_small_blocks(monkeypatch, lattice):
    # a lattice above _LATTICE is scored in blocks, each for every trial
    monkeypatch.setattr(detect, "_LATTICE", lattice)
    rng = np.random.default_rng(45)
    t, m, n = 12, 5, 3
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    r = 3.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, (t, m)))
    x = C16.points[rng.integers(0, 16, (t, n))]
    z = np.abs(np.einsum("tij,tj->ti", H, x) + r + 0.3 * rng.standard_normal((t, m)))
    got = ml_single_shot_stacked(z, H, r, C16)
    cand = all_candidates(16, n)
    for k in range(t):
        s = cand @ H[k].T
        s += r[k]
        d = np.abs(s)
        d -= z[k]
        assert np.array_equal(got[k], cand[int(np.argmin(np.einsum("ij,ij->i", d, d)))]), k


def test_ml_64qam_8x4_noiseless_in_bounded_memory():
    # 2^24 candidates: the search must run in blocks, not hold all of them
    rng = np.random.default_rng(7)
    H, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    x = C64.points[rng.integers(0, 64, 4)]
    s_hat = H @ x
    tracemalloc.start()
    try:
        x_hat = ml_linear(s_hat, H, C64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x_hat, x)
    assert peak < 32 * 2**20


def test_ml_64qam_8x4_every_x_b_surviving_in_bounded_memory():
    # zero columns for users 2 and 3: all 2^12 of their branches survive, and
    # each ties with the others at the true users 0 and 1, so the lowest
    # index (point 0 for both) wins
    rng = np.random.default_rng(8)
    H, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    H[:, 2:] = 0.0
    x = C64.points[rng.integers(0, 64, 4)]
    tracemalloc.start()
    try:
        x_hat = ml_linear(H @ x, H, C64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x_hat, np.concatenate([x[:2], C64.points[[0, 0]]]))
    assert peak < 32 * 2**20


def test_ml_exact_on_identity_channel():
    x = C4.points[[2, 0, 3]]
    assert np.array_equal(ml_linear(x, np.eye(3, dtype=complex), C4), x)


def test_ml_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        H = np.sqrt(0.5) * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        s_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(ml_linear(s_hat, H, C4), _brute_force_ml(s_hat, H, C4)[1])


def test_ml_single_antenna_equals_quantize():
    rng = np.random.default_rng(1)
    s_hat = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for v in list(s_hat) + [0j]:
        x_hat = ml_linear(np.array([v]), np.array([[1.0 + 0j]]), C4)
        assert x_hat[0] == quantize(np.array([v]), C4)[0]


def test_ml_enumeration_order_first_user_fastest():
    # channel sees only user 1: among tied candidates the lowest mixed-radix
    # index fixes user 2 at point 0
    H = np.array([[1.0 + 0j, 0.0 + 0j]])
    x_hat = ml_linear(np.array([C4.points[3]]), H, C4)
    assert x_hat[0] == C4.points[3]
    assert x_hat[1] == C4.points[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ml_refuses_non_finite_input(bad):
    H = np.eye(3, dtype=complex)
    s_hat = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        ml_linear(np.where(np.arange(3) == 1, bad, s_hat), H, C4)
    H[2, 0] = bad
    with pytest.raises(ValueError):
        ml_linear_stacked(np.ones((2, 3), dtype=complex), np.stack([np.eye(3), H]), C4)


def test_ml_budget_guard():
    with pytest.raises(SearchBudgetError):
        ml_linear(np.zeros(8, dtype=complex), np.zeros((8, 7), dtype=complex), C16)
    # 4^13 = 2^26 candidates exceed the budget; 4^12 = 2^24 meets it exactly
    with pytest.raises(SearchBudgetError):
        ml_linear(np.zeros(13, dtype=complex), np.zeros((13, 13), dtype=complex), C4)
    assert candidate_count(4, 12) == DEFAULT_SEARCH_BUDGET


def test_zf_square_and_tall_noiseless():
    rng = np.random.default_rng(3)
    for m, n in ((4, 4), (8, 4)):
        for _ in range(10):
            H = np.sqrt(0.5 / n) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
            x = C16.points[rng.integers(0, 16, n)]
            assert np.array_equal(zf_linear(H @ x, H, C16), x)


def test_zf_underdetermined_and_singular():
    with pytest.raises(ValueError):
        zf_linear(np.zeros(2, dtype=complex), np.zeros((2, 3), dtype=complex), C4)
    rank1 = np.ones((4, 2), dtype=complex)
    with pytest.raises(IllConditionedChannelError):
        zf_linear(np.zeros(4, dtype=complex), rank1, C4)


def _conditioned_channel(rng, m, n, cond):
    """An m x n channel whose singular values run log-spaced from 1 to 1/cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q1 * np.logspace(0, -np.log10(cond), n)) @ q2.conj().T


@pytest.mark.parametrize("cond", [1e8, 1e9, 1e11])
def test_zf_exact_on_ill_conditioned_channels_the_guard_admits(cond):
    # the normal equations square cond(H): at 1e9 most of these came back wrong
    rng = np.random.default_rng(int(np.log10(cond)))
    for _ in range(200):
        H = _conditioned_channel(rng, 16, 8, cond)
        x = C4.points[rng.integers(0, 4, 8)]
        assert np.array_equal(zf_linear(H @ x, H, C4), x)


def test_zf_refuses_condition_beyond_the_guard():
    rng = np.random.default_rng(13)
    for cond in (1e13, 1e15):
        H = _conditioned_channel(rng, 16, 8, cond)
        with pytest.raises(IllConditionedChannelError):
            zf_linear(H @ C4.points[rng.integers(0, 4, 8)], H, C4)


@pytest.mark.parametrize("m,n", [(8, 4), (16, 4), (5, 5), (32, 16)])
def test_stacked_zf_matches_one_trial_calls(m, n):
    rng = np.random.default_rng(m * n)
    t = 12
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    x = C16.points[rng.integers(0, 16, (t, n))]
    s_hat = np.einsum("tmn,tn->tm", H, x)
    s_hat += 0.2 * (rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m)))
    got = zf_linear(s_hat, H, C16)
    assert got.shape == (t, n)
    for k in range(t):
        one = zf_linear(s_hat[k], H[k], C16)
        assert one.shape == (n,) and got[k].tobytes() == one.tobytes(), k
        # a one-trial call keeps the bits of its unstacked solve
        r = detect._qr_r(s_hat[k][None], H[k][None])[0]
        assert one.tobytes() == quantize(np.linalg.solve(r[:n, :n], r[:n, n]), C16).tobytes()


def test_zf_stack_refuses_one_trial_beyond_the_guard():
    rng = np.random.default_rng(14)
    H = np.stack([_conditioned_channel(rng, 16, 8, cond) for cond in (10.0, 1e3, 1e13, 1e2)])
    s_hat = np.einsum("tmn,tn->tm", H, C4.points[rng.integers(0, 4, (4, 8))])
    with pytest.raises(IllConditionedChannelError):
        zf_linear(s_hat, H, C4)
    zf_linear(s_hat[[0, 1, 3]], H[[0, 1, 3]], C4)  # the other trials pass the guard


def test_zf_metric_never_beats_ml():
    rng = np.random.default_rng(4)
    for _ in range(30):
        H = np.sqrt(0.5) * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        s_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        zf, ml = (np.sum(np.abs(s_hat - H @ x) ** 2)
                  for x in (zf_linear(s_hat, H, C4), ml_linear(s_hat, H, C4)))
        assert zf >= ml - 1e-12


def test_single_shot_noiseless_recovery():
    rng = np.random.default_rng(5)
    for _ in range(50):
        H = np.sqrt(0.5) * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        x = C4.points[rng.integers(0, 4, 2)]
        r = np.sqrt(100.0) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
        z = np.abs(H @ x + r)
        assert np.array_equal(ml_single_shot(z, H, r, C4), x)


def test_single_shot_scalar_example():
    # a generic-phase reference makes the scalar magnitude map injective
    r = np.array([100.0 * np.exp(1j * 0.4)])
    for x_true in C4.points:
        z = np.array([abs(x_true + r[0])])
        assert ml_single_shot(z, np.array([[1.0 + 0j]]), r, C4)[0] == x_true


def test_single_shot_scalar_real_reference_conjugate_tie():
    # with a purely real reference, |x + r| loses the sign of Im(x): the
    # conjugate pair ties and the lower point index wins
    r = np.array([100.0 + 0j])
    H = np.array([[1.0 + 0j]])
    for x_true in C4.points:
        z = np.array([abs(x_true + r[0])])
        x_hat = ml_single_shot(z, H, r, C4)
        conj_idx = int(np.argmin(np.abs(C4.points - x_true.conjugate())))
        true_idx = int(np.argmin(np.abs(C4.points - x_true)))
        assert x_hat[0] == C4.points[min(true_idx, conj_idx)]


@pytest.mark.parametrize("lattice", [1, 2, detect._LATTICE])
def test_single_shot_phase_ambiguity_tie_break(monkeypatch, lattice):
    # without a reference all unit-magnitude candidates tie; lowest index wins,
    # also when blocks of one or two candidates split the tie between them
    monkeypatch.setattr(detect, "_LATTICE", lattice)
    z = np.array([1.0])
    x_hat = ml_single_shot(z, np.array([[1.0 + 0j]]), np.zeros(1, dtype=complex), C4)
    assert x_hat[0] == C4.points[0]
    assert abs(z[0] - abs(x_hat[0])) < 1e-9


def test_single_shot_budget_guard():
    with pytest.raises(SearchBudgetError):
        ml_single_shot(np.zeros(8), np.zeros((8, 7), dtype=complex), np.zeros(8, dtype=complex), C16)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["z", "H", "r"])
def test_single_shot_refuses_non_finite_input(bad, where):
    args = {"z": np.ones(2), "H": np.eye(2, dtype=complex), "r": np.full(2, 10.0 + 0j)}
    args[where] = args[where].copy()
    args[where].flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        ml_single_shot(args["z"], args["H"], args["r"], C4)
    # in a stack, one bad trial refuses the whole call
    stacked = {k: np.stack([np.ones_like(v) if k == where else v, v]) for k, v in args.items()}
    with pytest.raises(ValueError, match="finite"):
        ml_single_shot_stacked(stacked["z"], stacked["H"], stacked["r"], C4)


def test_detectors_deterministic():
    rng = np.random.default_rng(6)
    H = np.sqrt(0.5) * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    s_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    r = 10.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    z = np.abs(H @ C4.points[[1, 2]] + r)
    for _ in range(3):
        assert np.array_equal(ml_linear(s_hat, H, C4), ml_linear(s_hat, H, C4))
        assert np.array_equal(ml_single_shot(z, H, r, C4), ml_single_shot(z, H, r, C4))
