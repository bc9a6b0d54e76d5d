import functools
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramimo import montecarlo
from ramimo.channel import (
    MAX_TRIALS, STREAM_IDS, derive_point_seed, draw_channel, draw_noise, draw_reference,
    keyed_rng, stream_rng, trial_keys,
)
from ramimo.cli import main
from ramimo.constellation import demap, make_qam, modulate
from ramimo.detect import ml_linear_stacked, ml_single_shot_stacked, zf_linear
from ramimo.frontend import observe_prss, observe_single
from ramimo.montecarlo import (
    BATCH_TRIALS,
    ExperimentConfig,
    default_phi_grid,
    run_ber_sweep,
    run_phi_sweep,
    run_rsr_sweep,
    run_trial,
    run_variance_trial,
    snr_db_to_sigma_v_sq,
)
from ramimo.reconstruct import reconstruct_general
from oracles import all_candidates, draw_bits, exhaustive_ml

PI = np.pi


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="qpsk")
    with pytest.raises(ValueError):
        ExperimentConfig(detector="mmse")
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="single_shot", detector="zf")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(m=0)
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sigma_v_sq=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"qam_order": 8},
    {"qam_order": 32},
    {"phi": 0.0},
    {"phi": PI},
    {"rsr_db": math.nan},
    {"phi": math.inf},
    {"sigma_v_sq": math.inf},
    {"snr_db_list": (10.0, math.nan)},
    {"phi_list": (PI / 2, -math.inf)},
    {"rsr_db_list": (math.inf,)},
    {"sigma_v_sq_list": (0.1, math.nan)},
    {"n": 8, "snr_db_list": (10.0,)},  # 16^8 ML candidates exceed the search budget
    {"sigma_v_sq_list": (0.1, -0.01)},
    {"master_seed": -1},
    # trial indices of 2^32 and above would take a second spawn-key word
    {"trials": MAX_TRIALS + 1},
    {"m": 1, "samples": MAX_TRIALS + 1},
    {"m": 512, "samples": 512 * MAX_TRIALS + 1},
    # a prss phase sweep refuses a singular offset rather than drop it
    {"phi_list": (PI / 2, 0.0)},
    # zero-forcing cannot separate more users than receivers
    {"m": 4, "n": 8, "detector": "zf", "snr_db_list": (10.0,)},
])
def test_config_refuses_bad_numbers(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_accepts_valid_orders_and_unused_phi():
    for order in (0, 4, 16, 64):
        ExperimentConfig(qam_order=order)
    ExperimentConfig(scheme="rf_baseline", phi=0.0)
    ExperimentConfig(scheme="single_shot", phi=0.0)
    ExperimentConfig(scheme="rf_baseline", phi_list=(PI / 2, 0.0))
    # the ML budget binds only a BER sweep's ML detector, and admits 64^4 = 2^24 exactly
    ExperimentConfig(n=8)
    ExperimentConfig(n=8, detector="zf", snr_db_list=(10.0,))
    ExperimentConfig(n=4, qam_order=64, snr_db_list=(10.0,))
    # the largest trial index, 2^32 - 1, still fits one spawn-key word
    ExperimentConfig(trials=MAX_TRIALS)
    ExperimentConfig(m=512, samples=512 * MAX_TRIALS)
    ExperimentConfig(master_seed=0)


def test_scheme_default_orders():
    assert ExperimentConfig(scheme="prss").order == 16
    assert ExperimentConfig(scheme="rf_baseline").order == 4
    assert ExperimentConfig(scheme="single_shot").order == 4
    assert ExperimentConfig(scheme="prss", qam_order=4).order == 4


def test_noiseless_trials_error_free():
    rf = ExperimentConfig(m=8, n=4, scheme="rf_baseline", detector="zf", sigma_v_sq=0.0)
    for t in range(5):
        assert run_trial(rf, t) == (0, 8)
    prss = ExperimentConfig(m=8, n=4, scheme="prss", detector="ml", rsr_db=120.0, sigma_v_sq=0.0)
    for t in range(3):
        assert run_trial(prss, t) == (0, 16)


def test_trial_determinism():
    cfg = ExperimentConfig(m=4, n=2, scheme="prss", detector="zf", sigma_v_sq=0.2)
    assert run_trial(cfg, 11) == run_trial(cfg, 11)
    a, _ = run_variance_trial(cfg, 7)
    b, _ = run_variance_trial(cfg, 7)
    assert np.array_equal(a, b)


def test_trials_derive_only_the_streams_they_use(monkeypatch):
    derived = []
    real = montecarlo.trial_keys

    def spy(pieces, roles):
        derived.append(tuple(roles))
        return real(pieces, roles)

    monkeypatch.setattr(montecarlo, "trial_keys", spy)
    one_slot = ["bits", "channel", "noise1"]
    expected = {
        "rf_baseline": one_slot,
        "single_shot": one_slot + ["reference"],
        "prss": one_slot + ["reference", "noise2"],
    }
    for scheme, streams in expected.items():
        derived.clear()
        run_trial(ExperimentConfig(m=4, n=2, scheme=scheme), 3)
        assert [sorted(roles) for roles in derived] == [sorted(streams)], scheme
        # a BER batch derives the same roles, once for the whole batch
        derived.clear()
        cfg = ExperimentConfig(m=4, n=2, scheme=scheme)
        montecarlo._ber_spans((montecarlo._Span(cfg, 0, 5),), 0, 5)
        assert [sorted(roles) for roles in derived] == [sorted(streams)], scheme
        # and so does a stacked chunk that crosses from one point into the next
        derived.clear()
        spans = [montecarlo._Span(cfg, 0, 3), montecarlo._Span(replace(cfg, master_seed=5), 2, 6)]
        montecarlo._ber_spans(spans, 1, 6)
        assert [sorted(roles) for roles in derived] == [sorted(streams)], scheme
    derived.clear()
    run_variance_trial(ExperimentConfig(m=4, n=2), 3)
    assert [sorted(roles) for roles in derived] == [sorted(STREAM_IDS)]


def test_fair_bits_from_raw_words_match_draw_bits():
    # bits 31 and 63 of each raw Philox word are what integers(0, 2) draws;
    # odd counts drop the last word's high half
    keys = trial_keys([(2026, 0, 1000)], ("bits",))[:, 0]
    rows = keys.tolist()
    for count in range(1, 34):
        got = montecarlo._fair_bits(rows, count)
        want = np.array([draw_bits(count, keyed_rng(key)) for key in keys])
        assert got.dtype == want.dtype and np.array_equal(got, want), count
    assert montecarlo._fair_bits([], 5).shape == (0, 5)


def _oracle_variance(cfg, t):
    """||s_hat - s||^2 of trial t, drawn and recovered one trial at a time."""
    c = make_qam(cfg.order)
    seed = cfg.master_seed
    bits = stream_rng(seed, t, "bits").integers(0, 2, cfg.n * c.bits_per_symbol)
    x = modulate(bits, c)
    H = draw_channel(cfg.m, cfg.n, stream_rng(seed, t, "channel"))
    r = draw_reference(cfg.m, cfg.n, cfg.rsr_db, stream_rng(seed, t, "reference"))
    v1 = draw_noise(cfg.m, cfg.sigma_v_sq, stream_rng(seed, t, "noise1"))
    v2 = draw_noise(cfg.m, cfg.sigma_v_sq, stream_rng(seed, t, "noise2"))
    s_hat = reconstruct_general(observe_prss(H, x, r, v1, v2, cfg.phi), r, cfg.phi)
    return np.sum(np.abs(s_hat - H @ x) ** 2)


@pytest.mark.parametrize("chunk", [1, 3, 16])
@pytest.mark.parametrize("phi", [PI / 2, -PI / 4, 0.9])
@pytest.mark.parametrize("m,n", [(512, 2), (8, 4), (5, 3)])
def test_batched_variance_matches_per_trial_oracle(monkeypatch, m, n, phi, chunk):
    monkeypatch.setattr(montecarlo, "_VARIANCE_ROWS", chunk * m)
    cfg = ExperimentConfig(m=m, n=n, rsr_db=25.0, sigma_v_sq=0.05, phi=phi, master_seed=31)
    points = ((cfg.rsr_db, cfg.sigma_v_sq, phi),)
    # trials 8..24: they start mid-batch, and the last chunk may run short
    [(_, got)] = montecarlo._variance_spans((montecarlo._Span(cfg, 8, 25, points),), 0, 17)
    assert got.shape == (1, 17)
    want = [_oracle_variance(cfg, t) for t in range(8, 25)]
    assert got[0].tobytes() == np.array(want).tobytes()


def test_batched_variance_points_share_draws():
    cfg = ExperimentConfig(m=16, n=2, master_seed=32)
    points = tuple((rsr, sv, PI / 2) for sv in (0.1, 0.0) for rsr in (15.0, 40.0))
    [(_, got)] = montecarlo._variance_spans((montecarlo._Span(cfg, 0, 7, points),), 0, 7)
    for p, (rsr, sv, phi) in enumerate(points):
        point = replace(cfg, rsr_db=rsr, sigma_v_sq=sv, phi=phi)
        assert got[p].tobytes() == np.array([_oracle_variance(point, t) for t in range(7)]).tobytes()


def test_variance_chunk_points_keep_their_bits_when_sharing_terms():
    # a chunk computes Hx, H(x e^{j phi}), the reference terms and the scaled
    # noise once for every point that shares them; each point alone computes its own
    cfg = ExperimentConfig(m=64, n=2, master_seed=33)
    keys = trial_keys([(cfg.master_seed, 0, 5)], montecarlo._ROLES["prss"])
    points = [(rsr, sv, phi) for phi in (PI / 2, 0.9, -PI / 2)
              for sv in (0.1, 0.001) for rsr in (20.0, 35.0)]
    got = montecarlo._variance_chunk(cfg, keys, points)
    assert got.shape == (len(points), 5)
    for row, point in zip(got, points):
        assert row.tobytes() == montecarlo._variance_chunk(cfg, keys, [point])[0].tobytes()


def _single_shot_one_trial(z, H, r, c):
    """ml_single_shot as one trial ran it: each metric from the one-trial
    product cand @ H.T, and the first minimum wins."""
    cand = all_candidates(c.order, H.shape[1])
    s = cand @ H.T
    s += r
    d = np.abs(s)
    d -= z
    return cand[int(np.argmin(np.einsum("ij,ij->i", d, d)))]


def _oracle_trial(cfg, t):
    """Trial t drawn and detected on its own, as run_trial did before BER
    chunks were stacked: (detector input, x_hat, bit errors, bits). ML is
    the exhaustive minimizer that ml_linear is specified to return."""
    c = make_qam(cfg.order)
    seed = cfg.master_seed
    bits = stream_rng(seed, t, "bits").integers(0, 2, cfg.n * c.bits_per_symbol)
    x = modulate(bits, c)
    H = draw_channel(cfg.m, cfg.n, stream_rng(seed, t, "channel"))
    v1 = draw_noise(cfg.m, cfg.sigma_v_sq, stream_rng(seed, t, "noise1"))
    if cfg.scheme == "single_shot":
        r = draw_reference(cfg.m, cfg.n, cfg.rsr_db, stream_rng(seed, t, "reference"))
        s = observe_single(H, x, r, v1)
        x_hat = _single_shot_one_trial(s, H, r, c)
    else:
        if cfg.scheme == "rf_baseline":
            s = H @ x + v1
        else:
            r = draw_reference(cfg.m, cfg.n, cfg.rsr_db, stream_rng(seed, t, "reference"))
            v2 = draw_noise(cfg.m, cfg.sigma_v_sq, stream_rng(seed, t, "noise2"))
            s = reconstruct_general(observe_prss(H, x, r, v1, v2, cfg.phi), r, cfg.phi)
        x_hat = exhaustive_ml(s, H, c) if cfg.detector == "ml" else zf_linear(s, H, c)
    return s, x_hat, int(np.count_nonzero(demap(x_hat, c) != bits)), bits.size


_CHUNK_CASES = {
    # 8x4 16-QAM is the benchmark's size: its screen runs in pruned slices
    "prss_ml_plus_half_pi": dict(scheme="prss", m=8, n=4, phi=PI / 2),
    "prss_ml_minus_half_pi": dict(scheme="prss", m=6, n=3, phi=-PI / 2),
    "prss_ml_oblique": dict(scheme="prss", m=6, n=3, phi=0.9),
    "prss_ml_noiseless": dict(scheme="prss", m=6, n=3, rsr_db=120.0, sigma_v_sq=0.0),
    "prss_zf_plus_half_pi": dict(scheme="prss", detector="zf", m=8, n=4, phi=PI / 2),
    "prss_zf_minus_half_pi": dict(scheme="prss", detector="zf", m=8, n=4, phi=-PI / 2),
    "prss_zf_oblique": dict(scheme="prss", detector="zf", m=8, n=4, phi=0.9),
    "rf_baseline_ml_4qam": dict(scheme="rf_baseline", m=8, n=4, sigma_v_sq=0.3),
    "rf_baseline_ml_16qam": dict(scheme="rf_baseline", m=4, n=3, qam_order=16),
    "rf_baseline_zf": dict(scheme="rf_baseline", detector="zf", m=8, n=4, sigma_v_sq=0.3),
    "single_shot_ml": dict(scheme="single_shot", m=6, n=3, sigma_v_sq=0.5),
}
_CHUNK_TRIALS = 32


@functools.lru_cache(maxsize=None)
def _oracle_case(case):
    cfg = ExperimentConfig(master_seed=41, **_CHUNK_CASES[case])
    return cfg, [_oracle_trial(cfg, t) for t in range(_CHUNK_TRIALS)]


@pytest.mark.parametrize("chunk", [1, 3, _CHUNK_TRIALS])
@pytest.mark.parametrize("case", sorted(_CHUNK_CASES))
def test_ber_chunks_match_one_trial_oracle(case, chunk):
    cfg, want = _oracle_case(case)
    keys = trial_keys([(cfg.master_seed, 0, _CHUNK_TRIALS)], montecarlo._ROLES[cfg.scheme])
    got = [montecarlo._ber_chunk(cfg, keys[lo : lo + chunk], cfg.sigma_v_sq)
           for lo in range(0, _CHUNK_TRIALS, chunk)]
    observed, x_hat, errors = (np.concatenate(part) for part in zip(*got))
    bits = cfg.n * make_qam(cfg.order).bits_per_symbol
    for t, (s, xh, e, b) in enumerate(want):
        assert observed[t].tobytes() == s.tobytes(), t
        assert x_hat[t].tobytes() == xh.tobytes(), t
        assert (int(errors[t]), bits) == (e, b), t
    total = sum(e for _, _, e, _ in want)
    span = montecarlo._Span(cfg, 0, _CHUNK_TRIALS)
    assert montecarlo._ber_spans((span,), 0, _CHUNK_TRIALS) == [total]
    if case == "prss_ml_noiseless":
        assert total == 0
    else:  # the comparison covers wrong decisions too
        assert total > 0


def test_stacked_detectors_keep_each_trials_lowest_index_tie():
    """Trials with exact ties stacked among trials without: each trial
    still gets its own lowest-index minimizer."""
    c = make_qam(4)
    rng = np.random.default_rng(43)
    t, m, n = 9, 4, 3
    H = np.sqrt(0.5 / n) * (rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n)))
    H[0::3, :, 1] = 0.0  # user 2 is unseen: every value of its symbol ties
    H[1::3] = np.round(4 * H[1::3])  # integer channels: exact sums
    H[1::3, :, 2] = H[1::3, :, 0]  # users 1 and 3 share a column: swapped symbols tie
    x = c.points[rng.integers(0, c.order, (t, n))]
    s_hat = np.einsum("tij,tj->ti", H, x)
    s_hat[1::3] = 0.0
    got = ml_linear_stacked(s_hat, H, c)
    for k in range(t):
        assert np.array_equal(got[k], exhaustive_ml(s_hat[k], H[k], c)), k
    assert np.all(got[0::3, 1] == c.points[0])
    # no reference: |Hx| cannot tell x from its rotations, so every trial ties
    r = np.zeros((t, m), dtype=complex)
    z = np.abs(np.einsum("tij,tj->ti", H, x))
    got = ml_single_shot_stacked(z, H, r, c)
    for k in range(t):
        assert np.array_equal(got[k], _single_shot_one_trial(z[k], H[k], r[k], c)), k


_VALID_PAIRS = [(s, d) for s in montecarlo.SCHEMES for d in montecarlo.DETECTORS
                if not (s == "single_shot" and d != "ml")]


@st.composite
def _small_ber_configs(draw):
    scheme, detector = draw(st.sampled_from(_VALID_PAIRS))
    n = draw(st.integers(1, 3))
    # ZF needs at least as many receivers as users
    m = draw(st.integers(n if detector == "zf" else 1, 6))
    return ExperimentConfig(
        m=m, n=n, scheme=scheme, detector=detector,
        qam_order=draw(st.sampled_from(montecarlo.QAM_ORDERS)),
        phi=draw(st.sampled_from([PI / 2, 0.9])),
        snr_db_list=(draw(st.sampled_from([0.0, 8.0, 16.0])),),
        trials=draw(st.integers(1, 40)),
        target_errors=draw(st.sampled_from([0, 5])),
        master_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_small_ber_configs())
def test_ber_sweep_counts_equal_serial_and_parallel(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
        parallel = run_ber_sweep(replace(cfg, workers=2))
    assert parallel == run_ber_sweep(cfg)


def _per_point_batches(cfg):
    """(bit errors, bits) of each point of cfg's BER sweep, run one point at
    a time in BATCH_TRIALS-trial batches, each batch one stacked chunk,
    until a batch ends at or past target_errors or the trial cap."""
    roles = montecarlo._ROLES[cfg.scheme]
    bits = cfg.n * make_qam(cfg.order).bits_per_symbol
    counts = []
    for i, snr_db in enumerate(cfg.snr_db_list):
        seed = derive_point_seed(cfg.master_seed, i)
        point = replace(cfg, sigma_v_sq=snr_db_to_sigma_v_sq(snr_db), master_seed=seed)
        errors = done = 0
        while done < cfg.trials and not (cfg.target_errors and errors >= cfg.target_errors):
            stop = min(done + BATCH_TRIALS, cfg.trials)
            keys = trial_keys([(seed, done, stop)], roles)
            errors += int(montecarlo._ber_chunk(point, keys, point.sigma_v_sq)[2].sum())
            done = stop
        counts.append((errors, done * bits))
    return counts


@st.composite
def _small_ber_sweeps(draw):
    scheme, detector = draw(st.sampled_from(_VALID_PAIRS))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(n if detector == "zf" else 1, 4))
    return ExperimentConfig(
        m=m, n=n, scheme=scheme, detector=detector,
        qam_order=draw(st.sampled_from(montecarlo.QAM_ORDERS)),
        snr_db_list=tuple(draw(st.lists(st.sampled_from([0.0, 6.0, 12.0, 30.0]),
                                        min_size=1, max_size=4))),
        # up to three batches per point, the last one short
        trials=draw(st.integers(1, 3 * BATCH_TRIALS - 56)),
        target_errors=draw(st.sampled_from([0, 2, 150])),
        master_seed=draw(st.integers(0, 2**32)),
        workers=draw(st.sampled_from([1, 2])),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_small_ber_sweeps(), st.sampled_from([montecarlo._POOL_COST_S, 0.0]))
def test_rounds_count_each_point_as_its_own_batch_loop(cfg, pool_cost_s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_POOL_COST_S", pool_cost_s)
        records = run_ber_sweep(cfg)
    assert [(r.bit_errors, r.bits_total) for r in records] == _per_point_batches(cfg)


@pytest.mark.parametrize("case", ["prss_ml_oblique", "prss_zf_minus_half_pi",
                                  "rf_baseline_ml_16qam", "single_shot_ml"])
def test_a_block_across_two_points_gives_each_trial_its_points_own_results(monkeypatch, case):
    cfg = ExperimentConfig(master_seed=41, **_CHUNK_CASES[case])
    points = [replace(cfg, master_seed=51, sigma_v_sq=0.4),
              replace(cfg, master_seed=52, sigma_v_sq=0.02)]
    spans = (montecarlo._Span(points[0], 5, 17), montecarlo._Span(points[1], 0, 9))
    stacked = []
    chunk = montecarlo._ber_chunk

    def spy(*args):
        stacked.append(chunk(*args))
        return stacked[-1]

    monkeypatch.setattr(montecarlo, "_ber_chunk", spy)
    # the round's trials 4..17: the first point's trials 9..16, then the second's 0..5
    errors = montecarlo._ber_spans(spans, 4, 18)
    [(observed, x_hat, wrong)] = stacked  # one stacked chunk holds both points' trials
    assert len(wrong) == 14
    at = 0
    for point, first, stop in ((points[0], 9, 17), (points[1], 0, 6)):
        keys = trial_keys([(point.master_seed, first, stop)], montecarlo._ROLES[cfg.scheme])
        own = chunk(point, keys, point.sigma_v_sq)
        for t in range(stop - first):
            assert observed[at + t].tobytes() == own[0][t].tobytes(), (point.master_seed, t)
            assert x_hat[at + t].tobytes() == own[1][t].tobytes(), (point.master_seed, t)
            assert wrong[at + t] == own[2][t], (point.master_seed, t)
        at += stop - first
    assert errors == [int(wrong[:8].sum()), int(wrong[8:].sum())]
    assert errors[0] > 0  # the noisier point decides wrongly too


_LONG_STEP = 2048  # the stacked chunk of an 8x4 BER trial (_ber_step)
_real_ber_spans = montecarlo._ber_spans


def _bounded_block(spans, lo, hi):
    """The round's block, refusing a claimed chunk above a batch's cap."""
    assert hi - lo <= max(_LONG_STEP, BATCH_TRIALS), (lo, hi)
    return _real_ber_spans(spans, lo, hi)


def _one_step_of_keys(pieces, roles):
    assert sum(stop - start for _, start, stop in pieces) <= _LONG_STEP, pieces
    return trial_keys(pieces, roles)


def _no_detection(cfg, keys, sigma_v_sq):
    """A chunk that counts one error per trial without detecting, so that
    2^20 trials per point run in a second and each is seen to run once."""
    assert len(keys) <= _LONG_STEP and len(sigma_v_sq) == len(keys)
    return None, None, np.ones(len(keys), dtype=np.int64)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_long_round_is_claimed_in_bounded_chunks_keyed_a_step_at_a_time(monkeypatch, workers):
    cfg = ExperimentConfig(m=8, n=4, scheme="rf_baseline", snr_db_list=(4.0, 8.0),
                           trials=1 << 20, target_errors=0, master_seed=7, workers=workers)
    assert montecarlo._ber_step(cfg) == _LONG_STEP
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    monkeypatch.setattr(montecarlo, "trial_keys", _one_step_of_keys)
    monkeypatch.setattr(montecarlo, "_ber_chunk", _no_detection)
    if workers > 1:  # a serial run keeps each round as one block
        monkeypatch.setattr(montecarlo, "_ber_spans", _bounded_block)
    telemetry = {}
    records = run_ber_sweep(cfg, telemetry)
    assert telemetry["workers_started"] == workers - 1
    assert [(r.bit_errors, r.bits_total) for r in records] == [(1 << 20, (1 << 20) * 8)] * 2


def test_variance_trial_returns_ground_truth_pair():
    cfg = ExperimentConfig(m=16, n=2, scheme="prss", rsr_db=60.0, sigma_v_sq=0.0)
    s_hat, s = run_variance_trial(cfg, 0)
    assert s_hat.shape == s.shape == (16,)
    assert np.max(np.abs(s_hat - s)) < 1e-2  # only the Taylor residual remains


def test_ber_sweep_requires_points_and_trials():
    with pytest.raises(ValueError):
        run_ber_sweep(ExperimentConfig(snr_db_list=()))
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db_list=(10.0,), trials=0)


def test_ber_sweep_counts_and_stopping(monkeypatch):
    spans = {}  # point seed -> the trial ranges that a round's blocks ran for it
    block = montecarlo._ber_spans

    def spy(round_spans, lo, hi):
        for i, first, stop in montecarlo._pieces(round_spans, lo, hi):
            spans.setdefault(round_spans[i].cfg.master_seed, []).append((first, stop))
        return block(round_spans, lo, hi)

    monkeypatch.setattr(montecarlo, "_ber_spans", spy)
    cfg = ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(0.0, 30.0), trials=1000, target_errors=50, master_seed=5,
    )
    records = run_ber_sweep(cfg)
    assert [r.snr_db for r in records] == [0.0, 30.0]
    trials = [r.bits_total // (2 * 2) for r in records]  # 2 users, 2 bits per 4-QAM symbol
    for rec, t in zip(records, trials):
        ran = sorted(spans[rec.seed])  # trials 0..t-1, each run once
        assert ran[0][0] == 0 and all(a[1] == b[0] for a, b in zip(ran, ran[1:]))
        assert rec.bits_total == ran[-1][1] * 2 * 2
        assert t % BATCH_TRIALS == 0 or t == cfg.trials
        assert 0 <= rec.ber <= 1
        assert rec.bit_errors <= rec.bits_total
    # noisy point stops early on the error target, clean point runs the cap
    assert records[0].bit_errors >= 50
    assert trials[0] < trials[1]
    # distinct sub-seeds per point
    assert records[0].seed != records[1].seed


def test_ber_sweep_serial_parallel_identical(monkeypatch):
    base = ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(5.0, 15.0), trials=600, target_errors=100, master_seed=9,
    )
    serial = run_ber_sweep(base)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    parallel = run_ber_sweep(replace(base, workers=3))
    assert serial == parallel


_barrier = None  # set before the workers fork, so each inherits it


def _worker_threads(cfg, lo, hi):
    """(pid, OpenBLAS threads, OS threads) of the process that runs trial lo."""
    _barrier.wait(timeout=60)  # every process holds one trial: none takes two
    return os.getpid(), montecarlo._blas_threads().get(), len(os.listdir("/proc/self/task"))


def test_pool_workers_use_one_blas_thread(monkeypatch):
    global _barrier
    if montecarlo._blas_threads() is None:
        pytest.skip("this process has no OpenBLAS with a thread-count control")
    np.ones((256, 256)) @ np.ones((256, 256))  # the parent's BLAS team is running
    _barrier = multiprocessing.Barrier(4)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    with montecarlo._Runner(4) as run:
        chunks = run.map(_worker_threads, None, 0, 4, later=0, step=1)
    seen = {pid: (blas, tasks) for pid, blas, tasks in chunks}
    here = seen.pop(os.getpid())
    # one BLAS thread, and no idle BLAS team left spinning beside it
    assert list(seen.values()) == [(1, 1)] * 3
    assert here[0] == 1  # the caller runs its trial on one BLAS thread too


def _trial_indices(refuse_odd, lo, hi):
    if refuse_odd and lo % 2:
        raise ValueError(f"trial {lo}")
    return list(range(lo, hi))


def test_worker_exception_reaches_caller():
    with montecarlo._Runner(3) as run:
        run._start()
        with pytest.raises(ValueError, match="trial"):
            run.map(_trial_indices, True, 0, 40, later=0, step=1)
        # every reply was drained: a later batch gets its own results, in order
        chunks = run.map(_trial_indices, False, 10, 50, later=0, step=1)
        assert [t for chunk in chunks for t in chunk] == list(range(10, 50))
        # two chunks per process (three processes): ceil(40 / 6) trials, the last the rest
        assert [len(chunk) for chunk in chunks] == [7] * 5 + [5]


def test_parent_blas_threads_untouched_by_pool():
    api = montecarlo._blas_threads()
    if api is None:
        pytest.skip("this process has no OpenBLAS with a thread-count control")
    cfg = ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(5.0,), trials=300, master_seed=9, workers=2,
    )
    original = api.get()
    api.set(2)  # a known count other than the workers' 1, whatever ran before
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
            telemetry = {}
            run_ber_sweep(cfg, telemetry)
        assert telemetry["workers_started"] == 1
        assert api.get() == 2
    finally:
        api.set(original)


def _refuse(cfg, lo, hi):
    raise ValueError(f"trial {lo}")


def test_a_failed_pooled_sweep_joins_its_workers_and_restores_blas_threads(monkeypatch):
    api = montecarlo._blas_threads()
    if api is None:
        pytest.skip("this process has no OpenBLAS with a thread-count control")
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    monkeypatch.setattr(montecarlo, "_ber_spans", _refuse)  # every chunk fails
    started = _process_starts(monkeypatch)
    cfg = ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(5.0,), trials=300, master_seed=9, workers=3,
    )
    original = api.get()
    api.set(2)
    try:
        with pytest.raises(ValueError, match="trial"):
            run_ber_sweep(cfg)
        assert len(started) == 2 and all(proc.exitcode is not None for proc in started)
        assert api.get() == 2
    finally:
        api.set(original)


_claimed = None  # set before the worker forks, so it inherits it


def _die_in_a_worker(caller, lo, hi):
    """Kill the worker that runs this chunk; the caller's chunks wait until one has."""
    if os.getpid() != caller:
        _claimed.set()
        os.kill(os.getpid(), signal.SIGKILL)
    assert _claimed.wait(timeout=60)
    return lo


def test_a_worker_that_dies_reaches_the_caller_by_pid_and_exit_code(monkeypatch):
    global _claimed
    _claimed = multiprocessing.Event()
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    with montecarlo._Runner(2) as run:
        with pytest.raises(RuntimeError) as failure:
            run.map(_die_in_a_worker, os.getpid(), 0, 32, later=0, step=1)
        [proc] = run.procs
    assert str(failure.value) == (
        f"worker {proc.pid} died in a batch (exit code {-signal.SIGKILL})")


def test_a_parallel_run_that_never_forks_keeps_the_callers_blas_threads(monkeypatch, tmp_path):
    api = montecarlo._blas_threads()
    if api is None:
        pytest.skip("this process has no OpenBLAS with a thread-count control")
    calls, seen = [], []
    block, set_threads = montecarlo._ber_spans, montecarlo._set_blas_threads

    def blocks(spans, lo, hi):
        seen.append((api.get(), len(os.listdir("/proc/self/task"))))
        return block(spans, lo, hi)

    def thread_calls(count):
        calls.append(count)
        return set_threads(count)

    monkeypatch.setattr(montecarlo, "_ber_spans", blocks)
    monkeypatch.setattr(montecarlo, "_set_blas_threads", thread_calls)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", math.inf)  # the pool never pays
    original = api.get()
    api.set(2)
    try:
        np.ones((256, 256)) @ np.ones((256, 256))  # the caller's BLAS team is running
        tasks = len(os.listdir("/proc/self/task"))
        assert main(["ber", "--scheme", "rf_baseline", "--detector", "zf", "--m", "2", "--n", "2",
                     "--snr-db-list", "5,9", "--trials", "300", "--seed", "9", "--threads", "2",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "ber.manifest.json").read_text())
        assert manifest["workers_started"] == 0
        assert calls == []  # no OpenBLAS thread call at all
        # every block, the timed first chunk included, on the caller's own threads
        assert seen and set(seen) == {(2, tasks)}
        assert api.get() == 2 and len(os.listdir("/proc/self/task")) == tasks
        assert manifest["env"]["blas_threads_per_worker"] == 2
    finally:
        api.set(original)


def test_parallel_without_blas_control_matches_serial(monkeypatch):
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: None)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    base = ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(5.0, 15.0), trials=600, target_errors=100, master_seed=9,
    )
    assert run_ber_sweep(replace(base, workers=2)) == run_ber_sweep(base)
    assert montecarlo.run_environment(2, 1)["blas_threads_per_worker"] is None


@pytest.fixture
def uncached_blas_threads():
    """`_blas_threads` looked up afresh in the test, and again after it."""
    montecarlo._blas_threads.cache_clear()
    yield montecarlo._blas_threads
    montecarlo._blas_threads.cache_clear()


def _maps(monkeypatch, *paths):
    """Make /proc/self/maps, as `_blas_threads` reads it, map just paths."""
    lines = "".join(f"7f00-7f01 r-xp 00000000 08:01 1 {path}\n" for path in paths)
    monkeypatch.setattr(montecarlo, "open", lambda *_, **__: io.StringIO(lines), raising=False)


def test_no_blas_threads_without_proc_maps(monkeypatch, uncached_blas_threads):
    def refuse(*_, **__):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(montecarlo, "open", refuse, raising=False)
    assert uncached_blas_threads() is None


def test_no_blas_threads_when_a_mapped_openblas_does_not_load(monkeypatch, uncached_blas_threads):
    _maps(monkeypatch, "/nonexistent/libopenblas.so.0")
    assert uncached_blas_threads() is None


def test_no_blas_threads_without_a_thread_count_pair(monkeypatch, uncached_blas_threads):
    # each library loads, but exports one half of a pair at most
    libs = {
        "/lib/libopenblas.so": types.SimpleNamespace(openblas_set_num_threads=None),
        "/lib/libscipy_openblas64_.so": types.SimpleNamespace(
            scipy_openblas_get_num_threads64_=None),
    }
    _maps(monkeypatch, *libs)
    monkeypatch.setattr(montecarlo.ctypes, "CDLL", libs.__getitem__)
    assert uncached_blas_threads() is None


def test_run_environment_without_a_build_config(monkeypatch):
    monkeypatch.setattr(np, "show_config", lambda *_, **__: None)  # as numpy < 1.26
    assert montecarlo.run_environment(1, 0)["blas"] is None


class _Clock:
    """A stand-in for `perf_counter` in `montecarlo`: the k-th block of
    trials that a sweep's caller times alone takes seconds[k] (the last
    value for every later one)."""

    def __init__(self, *seconds: float):
        self.seconds = seconds
        self.calls = 0
        self.now = 0.0

    def __call__(self) -> float:
        block, ends = divmod(self.calls, 2)
        self.calls += 1
        if ends:
            self.now += self.seconds[min(block, len(self.seconds) - 1)]
        return self.now

    @property
    def blocks(self) -> int:
        return self.calls // 2


def _process_starts(monkeypatch) -> list:
    """Record every process that starts, and let it start."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    return started


@pytest.mark.parametrize("width, first_chunk_s, forks", [
    (2, 0.5, False), (2, 1.0, True), (3, 0.5, False), (3, 1.0, True),
])
def test_workers_start_only_when_the_projected_saving_covers_their_cost(
        monkeypatch, width, first_chunk_s, forks):
    # 64 trials at width 2: the caller times a 16-trial chunk alone; the other
    # 48 would save 48 x first_chunk_s / 16 x (2 - 1) / 2 = 1.5 x first_chunk_s
    # against one worker's cost. At width 3 it times 11 trials, and the other
    # 53 would save 53 x first_chunk_s / 11 x (3 - 1) / 3 = 3.2 x first_chunk_s
    # against two workers' cost
    cfg = ExperimentConfig(
        m=4, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(6.0,), trials=64, target_errors=0, master_seed=3,
    )
    serial = run_ber_sweep(cfg)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 1.0)
    clock = _Clock(first_chunk_s)
    monkeypatch.setattr(montecarlo, "perf_counter", clock)
    started = _process_starts(monkeypatch)
    telemetry = {}
    assert run_ber_sweep(replace(cfg, workers=width), telemetry) == serial
    assert len(started) == telemetry["workers_started"] == (width - 1 if forks else 0)
    # alone, the caller ran the rest of the batch as one block
    assert clock.blocks == (1 if forks else 2)


_TARGET_STOP = ExperimentConfig(
    m=4, n=2, scheme="rf_baseline", detector="zf",
    snr_db_list=(6.0, 20.0), trials=4000, target_errors=100, master_seed=21,
)
_PHI = ExperimentConfig(
    m=32, n=2, scheme="prss", rsr_db=30.0, sigma_v_sq=0.1,
    phi_list=(PI / 2, 0.9, -PI / 4), samples=32 * 40, master_seed=22,
)
_RSR = ExperimentConfig(
    m=32, n=2, scheme="prss", rsr_db_list=(15.0, 30.0, 45.0),
    sigma_v_sq_list=(0.1, 0.001), samples=32 * 40, master_seed=23,
)


@pytest.mark.parametrize("sweep, cfg, block_seconds, blocks_alone", [
    # rounds 0-2 run alone (round 0 as a timed first chunk and its rest),
    # the pool serves round 3 on, and the first point stops on target_errors
    (run_ber_sweep, _TARGET_STOP, (0.0, 0.0, 0.0, 1e3), 4),
    # a timed first chunk and one stacked chunk, which crosses into the
    # second offset, run alone; the pool serves the rest
    (run_phi_sweep, _PHI, (0.0, 1e3), 2),
    # the caller's first chunk, then the pool for the rest of the one batch
    (run_rsr_sweep, _RSR, (1e3,), 1),
], ids=["ber_target_errors", "phi_sweep", "rsr_sweep"])
def test_a_pool_started_mid_sweep_returns_serial_records(
        monkeypatch, sweep, cfg, block_seconds, blocks_alone):
    serial = sweep(cfg)
    if sweep is run_ber_sweep:
        trials = serial[0].bits_total // (2 * 2)  # 2 users, 2 bits per 4-QAM symbol
        assert 3 * BATCH_TRIALS < trials < cfg.trials  # stopped on target_errors
    monkeypatch.setattr(montecarlo, "perf_counter", clock := _Clock(*block_seconds))
    telemetry = {}
    assert sweep(replace(cfg, workers=3), telemetry) == serial
    assert telemetry["workers_started"] == 2
    assert clock.blocks == blocks_alone


@pytest.mark.parametrize("start, stop, width", [
    (0, 32, 2), (10, 50, 3), (0, 256, 2), (0, 256, 3), (256, 300, 8), (0, 1, 4), (5, 8, 8),
])
def test_chunks_cover_the_batch_in_order_and_none_is_a_sliver(start, stop, width):
    counter = multiprocessing.Value("q", start)
    size = montecarlo._chunk(start, stop, width, step=1)
    claimed = montecarlo._take(counter, lambda arg, lo, hi: hi, None, start, stop, size)
    bounds = [start, *(claimed[lo] for lo in sorted(claimed))]
    assert sorted(claimed) == bounds[:-1] and bounds[-1] == stop  # contiguous, in order
    sizes = np.diff(bounds)
    floor = math.ceil((stop - start) / (montecarlo._CHUNKS_PER_PROCESS * width))
    assert all(sizes[:-1] == floor) and 0 < sizes[-1] <= floor
    assert len(sizes) <= montecarlo._CHUNKS_PER_PROCESS * width


# A fresh interpreter, in a session of its own, opens two processes (one
# worker) and prints the worker's pid; the test appends what the run does.
_RUN_SCRIPT = """
import os, sys, time
from ramimo import montecarlo

def slow(seconds, lo, hi):
    print("chunk", os.getpid(), flush=True)
    time.sleep(seconds * (hi - lo))
    return lo

run = montecarlo._Runner(2).__enter__()
run._start()
print(*(proc.pid for proc in run.procs), flush=True)
"""


def _interpreter(code: str) -> subprocess.Popen:
    """A fresh Python, in a new session, that runs code on the ramimo under test."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def _exited(pid: int) -> bool:
    """Whether process pid has exited (a zombie not yet reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _assert_exit(pids, seconds: float = 30.0) -> None:
    deadline = time.monotonic() + seconds
    try:
        while not all(map(_exited, pids)):
            assert time.monotonic() < deadline, f"workers {pids} outlived their caller"
            time.sleep(0.02)
    finally:
        for pid in pids:  # leave no worker running, whatever the test found
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


def test_no_worker_outlives_its_run():
    with _interpreter(_RUN_SCRIPT + """
assert run.map(slow, 0.0, 0, 64, 0, 1) == list(range(0, 64, 16))
run.__exit__()
print(run.procs[0].exitcode, flush=True)
""") as proc:
        pids = [int(p) for p in proc.stdout.readline().split()]
        out, err = proc.stdout.read(), proc.stderr.read()  # communicate() would skip buffered lines
        proc.wait(timeout=30)
    assert proc.returncode == 0 and len(pids) == 1 and err == "", err
    assert out.splitlines()[-1] == "0"  # the worker exited, and cleanly, with its run


def test_workers_exit_quietly_when_their_caller_is_killed():
    proc = _interpreter(_RUN_SCRIPT + "time.sleep(120)\n")
    pids = [int(p) for p in proc.stdout.readline().split()]
    proc.kill()
    proc.wait(timeout=30)
    _assert_exit(pids)
    _, err = proc.communicate(timeout=30)
    assert len(pids) == 1 and err == "", err  # no traceback from a worker


# 64 trials of 0.25 s at width 2: four chunks of 4 s, 8 s for the batch
_INTERRUPTED_BATCH = _RUN_SCRIPT + """
try:
    run.map(slow, 0.25, 0, 64, 0, 1)
except KeyboardInterrupt:
    print("interrupted", flush=True)
run.__exit__()
"""


@pytest.mark.parametrize("group, bound", [(True, 3.0), (False, 8.0)])
def test_an_interrupted_batch_returns_promptly(group, bound):
    """Ctrl-C reaches the caller and its worker, which both stop at once; a
    SIGINT sent to the caller alone waits out the worker's current chunk
    (4 s), not the rest of the batch that it would otherwise run alone."""
    proc = _interpreter(_INTERRUPTED_BATCH)
    pids = [int(p) for p in proc.stdout.readline().split()]
    try:
        running = set()
        while len(running) < 2:  # both processes hold a chunk: the batch is under way
            running.add(proc.stdout.readline())
        sent = time.monotonic()
        if group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            os.kill(proc.pid, signal.SIGINT)
        assert proc.stdout.readline() == "interrupted\n"
        proc.wait(timeout=30)
        took = time.monotonic() - sent
        _assert_exit(pids)
        err = proc.stderr.read()
        assert proc.returncode == 0 and err == "", err
        assert took < bound, f"{took:.1f} s to stop"
    finally:
        proc.kill()
        proc.communicate()


# Ctrl-C to the whole process group right after a worker's start() returns,
# while the worker still runs the interpreter's fork handlers (threading's
# among them), where a KeyboardInterrupt prints "Exception ignored in". A
# fork handler of the script's own tells the caller when the worker is there.
_INTERRUPTED_START = """
import multiprocessing.process, os, signal, time
forked, in_handlers = os.pipe()

def handler():
    os.write(in_handlers, b"x")
    time.sleep(0.2)

os.register_at_fork(after_in_child=handler)
start = multiprocessing.process.BaseProcess.start

def start_then_interrupt(self):
    start(self)
    os.read(forked, 1)
    os.killpg(0, signal.SIGINT)

multiprocessing.process.BaseProcess.start = start_then_interrupt
""" + _RUN_SCRIPT


def test_ctrl_c_while_a_worker_starts_reaches_only_the_caller():
    for _ in range(10):
        proc = _interpreter(_INTERRUPTED_START)
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.communicate()
        # the caller reports the interrupt: one traceback, and death by SIGINT
        assert "Exception ignored" not in err, err
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err
        assert proc.returncode == -signal.SIGINT and out == "", (proc.returncode, out)


def test_variance_sweep_serial_parallel_identical(monkeypatch):
    base = ExperimentConfig(
        m=64, n=2, scheme="prss", rsr_db=30.0, sigma_v_sq=0.1,
        phi_list=(PI / 2, PI / 4), samples=2000, master_seed=10,
    )
    serial = run_phi_sweep(base)
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # the pool starts at once
    parallel = run_phi_sweep(replace(base, workers=3))
    assert serial == parallel  # ordered reduction: bit-identical floats


def test_energy_per_bit_equal_across_schemes():
    e16 = np.mean(np.abs(make_qam(16).points) ** 2)
    e4 = np.mean(np.abs(make_qam(4).points) ** 2)
    prss_energy_per_bit = 2 * e16 / 4  # two unit-energy slots, four bits
    baseline_energy_per_bit = 1 * e4 / 2  # one slot, two bits
    assert abs(prss_energy_per_bit - baseline_energy_per_bit) < 1e-12


def test_confidence_width_scaling(monkeypatch):
    # ber and ci95 come from a point's (bit errors, bits), where its record is built
    counts = iter([(100, 10_000), (400, 40_000)])
    monkeypatch.setattr(montecarlo, "_ber_rounds", lambda points, run: list(counts))
    a, b = run_ber_sweep(ExperimentConfig(
        m=2, n=2, scheme="rf_baseline", detector="zf", snr_db_list=(5.0, 5.0)))
    assert a.ber == b.ber
    assert abs(b.ci95 - a.ci95 / 2) < 1e-15


def test_snr_conversion():
    assert abs(snr_db_to_sigma_v_sq(0.0) - 1.0) < 1e-15
    assert abs(snr_db_to_sigma_v_sq(20.0) - 0.01) < 1e-15


def test_default_phi_grid_structure():
    grid = default_phi_grid()
    assert len(grid) == 70  # (-pi, pi] at pi/36 minus {0, pi, -pi+...} singular points
    assert all(abs(math.sin(p)) >= 1e-9 for p in grid)
    steps = np.diff([p for p in grid if 0 < p < PI])
    assert np.allclose(steps, PI / 36, atol=1e-12)


def test_phi_sweep_minimum_near_quarter_turn():
    step = PI / 36
    grid = tuple(PI / 2 + k * step for k in range(-2, 3))
    cfg = ExperimentConfig(
        m=256, n=2, scheme="prss", rsr_db=30.0, sigma_v_sq=0.1,
        phi_list=grid, samples=50_000, master_seed=21,
    )
    records = run_phi_sweep(cfg)
    best = min(records, key=lambda r: r.sigma_ve_sq)
    assert abs(best.phi_rad - PI / 2) <= step + 1e-12
    assert len({r.seed for r in records}) == len(records)


def test_phi_sweep_rejects_all_singular_grid():
    with pytest.raises(ValueError):
        run_phi_sweep(ExperimentConfig(phi_list=(0.0, PI)))


def test_rsr_sweep_behavior():
    cfg = ExperimentConfig(
        m=256, n=2, scheme="prss",
        rsr_db_list=(15.0, 30.0, 45.0), sigma_v_sq_list=(0.1, 0.001),
        samples=30_000, master_seed=22,
    )
    records = run_rsr_sweep(cfg)
    assert len(records) == 6
    by_sigma = {}
    for r in records:
        by_sigma.setdefault(r.sigma_v_sq, []).append(r)
    for sigma, recs in by_sigma.items():
        values = [r.sigma_ve_sq for r in sorted(recs, key=lambda r: r.rsr_db)]
        assert values[0] >= values[1] >= values[2]  # common draws: pathwise decay
        assert values[-1] / sigma <= 1.05
    amp_small = by_sigma[0.001][0].sigma_ve_sq / 0.001
    amp_large = by_sigma[0.1][0].sigma_ve_sq / 0.1
    assert amp_small > amp_large
    # common random numbers: every point reports the sweep's master seed
    assert {r.seed for r in records} == {22}


def test_rsr_sweep_requires_grids():
    with pytest.raises(ValueError):
        run_rsr_sweep(ExperimentConfig(rsr_db_list=()))
    with pytest.raises(ValueError):
        run_rsr_sweep(ExperimentConfig(rsr_db_list=(20.0,), sigma_v_sq_list=()))
