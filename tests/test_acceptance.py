"""Acceptance suite: one test per criterion, printing measured values.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the per-criterion
lines for passing tests too).  The BER criteria (4 and 5) take a few minutes
each; everything else runs in seconds.
"""

import math
from dataclasses import replace

import numpy as np

from ramimo.channel import draw_channel, draw_noise, draw_reference, stream_rng
from ramimo.cli import _usable_cores, main
from ramimo.constellation import demap, make_qam, modulate, quantize
from ramimo.frontend import observe_single
from ramimo.montecarlo import (
    ExperimentConfig, run_ber_sweep, run_phi_sweep, run_rsr_sweep, run_trial,
    snr_db_to_sigma_v_sq,
)
from ramimo.reconstruct import predicted_mse

PI = math.pi
STEP = PI / 36


def _crossing_snr(records, target=1e-3):
    """SNR where the BER curve crosses `target` (log-linear interpolation)."""
    pts = [(r.snr_db, r.ber) for r in records if r.ber > 0]
    for (s1, b1), (s2, b2) in zip(pts, pts[1:]):
        if b1 > target >= b2:
            return s1 + (s2 - s1) * (math.log10(target) - math.log10(b1)) / (
                math.log10(b2) - math.log10(b1)
            )
    raise AssertionError(f"BER curve does not cross {target}: {pts}")


def test_criterion_1_optimal_offset():
    sigma = 0.1
    cfg = ExperimentConfig(
        m=512, n=2, scheme="prss", rsr_db=30.0, sigma_v_sq=sigma,
        samples=200_000, master_seed=101,
    )
    records = run_phi_sweep(cfg)
    assert all(r.samples >= 10_000 for r in records)
    best = min(records, key=lambda r: r.sigma_ve_sq)
    dist = min(abs(best.phi_rad - PI / 2), abs(best.phi_rad + PI / 2))
    ratio = best.sigma_ve_sq / sigma
    print(f"CRITERION 1: argmin phi = {best.phi_rad:.6f} rad ({dist / STEP:.2f} grid steps "
          f"from +-pi/2), min/sigma_v_sq = {ratio:.4f}")
    assert dist <= STEP + 1e-9, f"minimum {best.phi_rad} is {dist} rad from +-pi/2"
    assert abs(ratio - 1.0) <= 0.10, f"minimum {best.sigma_ve_sq} vs sigma_v_sq {sigma}"


def test_criterion_2_analytic_curve_match():
    sigma = 0.1
    cfg = ExperimentConfig(
        m=512, n=2, scheme="prss", rsr_db=45.0, sigma_v_sq=sigma,
        samples=200_000, master_seed=102,
    )
    records = run_phi_sweep(cfg)
    deviations = {
        r.phi_rad: abs(r.sigma_ve_sq / predicted_mse(r.phi_rad, sigma) - 1.0)
        for r in records
        if abs(math.sin(r.phi_rad)) >= 0.3
    }
    worst_phi = max(deviations, key=deviations.get)
    print(f"CRITERION 2: {len(deviations)} grid points with |sin phi| >= 0.3, "
          f"worst relative deviation {deviations[worst_phi]:.4f} at phi={worst_phi:.4f}")
    assert deviations, "no grid points with |sin phi| >= 0.3"
    assert deviations[worst_phi] <= 0.05


def test_criterion_3_noise_amplification():
    cfg = ExperimentConfig(
        m=512, n=2, scheme="prss",
        rsr_db_list=(15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0),
        sigma_v_sq_list=(1e-1, 1e-2, 1e-3),
        samples=100_000, master_seed=103,
    )
    records = run_rsr_sweep(cfg)
    curves = {}
    for r in records:
        curves.setdefault(r.sigma_v_sq, []).append(r)
    ratios_at_45 = {}
    amp_at_15 = {}
    for sigma, recs in curves.items():
        recs.sort(key=lambda r: r.rsr_db)
        values = [r.sigma_ve_sq for r in recs]
        assert all(a >= b for a, b in zip(values, values[1:])), (
            f"sigma_ve_sq not non-increasing in RSR for sigma_v_sq={sigma}: {values}"
        )
        ratios_at_45[sigma] = values[-1] / sigma
        amp_at_15[sigma] = values[0] / sigma
    print(f"CRITERION 3: ratios at 45 dB = { {s: round(v, 4) for s, v in ratios_at_45.items()} }, "
          f"amplification at 15 dB = { {s: round(v, 2) for s, v in amp_at_15.items()} }")
    for sigma, ratio in ratios_at_45.items():
        assert ratio <= 1.05, f"noise amplification {ratio} at RSR 45 dB for sigma={sigma}"
    assert amp_at_15[1e-3] > amp_at_15[1e-1]


def test_criterion_4_small_mimo_ber_gaps():
    common = dict(m=8, n=4, rsr_db=26.0, target_errors=200, master_seed=104)
    rf = run_ber_sweep(ExperimentConfig(
        scheme="rf_baseline", detector="ml",
        snr_db_list=(5.0, 6.0, 7.0, 8.0, 9.0, 10.0), trials=50_000, **common))
    single = run_ber_sweep(ExperimentConfig(
        scheme="single_shot", detector="ml",
        snr_db_list=(11.0, 12.0, 13.0, 14.0, 15.0, 16.0), trials=40_000, **common))
    prss = run_ber_sweep(ExperimentConfig(
        scheme="prss", detector="ml",
        snr_db_list=(12.0, 13.0, 14.0, 15.0, 16.0, 17.0), trials=25_000, **common))
    cross_rf = _crossing_snr(rf)
    cross_single = _crossing_snr(single)
    cross_prss = _crossing_snr(prss)
    gain_over_single = cross_single - cross_prss
    gap_to_rf = cross_prss - cross_rf
    print(f"CRITERION 4: 1e-3 crossings: RF-ML {cross_rf:.2f} dB, "
          f"single-shot-ML {cross_single:.2f} dB, PRSS-ML {cross_prss:.2f} dB; "
          f"PRSS gain over single-shot = {gain_over_single:.2f} dB (required 3 +- 1), "
          f"PRSS gap to RF = {gap_to_rf:.2f} dB (required 7 +- 1.5)")
    assert abs(gap_to_rf - 7.0) <= 1.5, f"PRSS-ML vs RF-ML gap {gap_to_rf:.2f} dB"
    assert abs(gain_over_single - 3.0) <= 1.0, (
        f"PRSS-ML vs single-shot-ML gain {gain_over_single:.2f} dB"
    )


def _single_slot_zf_ber(m, n, rsr_db, snr_db, trials, seed):
    """BER of one-slot linearized ZF with 4-QAM: a single-transmission baseline.

    Each trial makes run_trial's one-slot draws (streams bits, channel,
    reference and noise1, then observe_single).  With u = conj(r)/|r| the
    readout linearizes to z - |r| ~ Re{u * (Hx + v)}, a real M x 2N system in
    (Re x, Im x), which is solved by least squares and quantized per user.
    """
    c = make_qam(4)
    sigma_v_sq = snr_db_to_sigma_v_sq(snr_db)
    errors = 0
    bits_total = 0
    for t in range(trials):
        bits = stream_rng(seed, t, "bits").integers(0, 2, n * c.bits_per_symbol)
        x = modulate(bits, c)
        H = draw_channel(m, n, stream_rng(seed, t, "channel"))
        r = draw_reference(m, n, rsr_db, stream_rng(seed, t, "reference"))
        v = draw_noise(m, sigma_v_sq, stream_rng(seed, t, "noise1"))
        y = observe_single(H, x, r, v) - np.abs(r)
        uH = (np.conj(r) / np.abs(r))[:, None] * H
        sol = np.linalg.lstsq(np.hstack([uH.real, -uH.imag]), y, rcond=None)[0]
        x_hat = quantize(sol[:n] + 1j * sol[n:], c)
        errors += int(np.count_nonzero(demap(x_hat, c) != bits))
        bits_total += bits.size
    return errors / bits_total


def test_criterion_5_large_mimo_behavior():
    # every usable core: the counts do not depend on the worker count
    common = dict(m=128, n=64, detector="zf", target_errors=200,
                  trials=4000, master_seed=105, workers=_usable_cores())
    rf = run_ber_sweep(ExperimentConfig(
        scheme="rf_baseline", snr_db_list=(8.0, 9.0, 10.0, 11.0, 12.0), **common))
    # coherent receiver at PRSS's own 16-QAM: the curve PRSS-ZF tends to at a
    # quarter-turn offset, where the effective noise keeps variance sigma_v^2
    oracle = run_ber_sweep(ExperimentConfig(
        scheme="rf_baseline", qam_order=16, snr_db_list=(14.0, 15.0, 16.0, 17.0),
        **common))
    prss_grid = (13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0)
    curves = {
        rsr: run_ber_sweep(ExperimentConfig(
            scheme="prss", rsr_db=rsr, snr_db_list=prss_grid, **common))
        for rsr in (30.0, 35.0, 40.0)
    }
    mid_snr = 14.0
    ber_at_mid = {
        rsr: next(r.ber for r in recs if r.snr_db == mid_snr)
        for rsr, recs in curves.items()
    }
    crossings = {rsr: _crossing_snr(recs) for rsr, recs in curves.items()
                 if any(r.ber <= 1e-3 for r in recs)}
    best_rsr = min(crossings, key=crossings.get)
    cross_rf = _crossing_snr(rf)
    cross_oracle = _crossing_snr(oracle)
    excess = {rsr: c - cross_oracle for rsr, c in crossings.items()}
    # the abstract's claim: PRSS with sub-optimal detection beats
    # single-transmission detection by more than 10 dB
    claimed_gain_db = 10.0
    baseline_snr = crossings[best_rsr] + claimed_gain_db
    m, n, seed = common["m"], common["n"], common["master_seed"]
    baseline_ber = _single_slot_zf_ber(m, n, best_rsr, baseline_snr, trials=200, seed=seed)
    # the same detector in the linear limit, so a broken baseline cannot pass
    linear_limit_ber = _single_slot_zf_ber(m, n, 80.0, 80.0, trials=200, seed=seed)
    print(f"CRITERION 5: BER at {mid_snr} dB = { {r: f'{b:.3e}' for r, b in ber_at_mid.items()} }; "
          f"1e-3 crossings: RF-ZF 4-QAM {cross_rf:.2f} dB, RF-ZF 16-QAM oracle "
          f"{cross_oracle:.2f} dB (modulation penalty {cross_oracle - cross_rf:.2f} dB), "
          f"PRSS-ZF { {r: round(c, 2) for r, c in crossings.items()} }; "
          f"PRSS excess over oracle { {r: round(e, 2) for r, e in excess.items()} } "
          f"(required in [-0.3, 1.0] at best RSR {best_rsr}); "
          f"single-slot linearized ZF BER at {baseline_snr:.2f} dB "
          f"(PRSS + {claimed_gain_db:.0f} dB) = {baseline_ber:.3e} (required > 1e-3), "
          f"at RSR 80 dB / SNR 80 dB = {linear_limit_ber:.3e}")
    assert ber_at_mid[30.0] > ber_at_mid[35.0] > ber_at_mid[40.0], (
        f"BER not strictly improving with RSR at {mid_snr} dB: {ber_at_mid}"
    )
    assert -0.3 <= excess[best_rsr] <= 1.0, (
        f"PRSS-ZF (RSR {best_rsr}) vs 16-QAM RF-ZF oracle: {excess[best_rsr]:.2f} dB"
    )
    assert linear_limit_ber < 1e-2, (
        f"single-slot linearized ZF is not a working detector: BER {linear_limit_ber}"
    )
    assert baseline_ber > 1e-3, (
        f"single-slot linearized ZF reaches BER {baseline_ber} at {baseline_snr:.2f} dB, "
        f"within {claimed_gain_db} dB of PRSS-ZF"
    )


def test_criterion_6_oracle_equivalences():
    import itertools

    from oracles import build_measurement_matrix, lapack_reconstruct
    from ramimo.constellation import make_qam
    from ramimo.detect import ml_linear, zf_linear
    from ramimo.frontend import observe_prss
    from ramimo.reconstruct import predicted_trace, reconstruct_general

    rng = np.random.default_rng(106)
    # ml_linear vs explicit enumeration, 200 instances with J^N <= 256
    c4, c16 = make_qam(4), make_qam(16)
    for i in range(200):
        c, n = (c4, 4) if i % 2 else (c16, 2)
        m = int(rng.integers(2, 6))
        H = np.sqrt(0.5 / n) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        s_hat = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x_hat = ml_linear(s_hat, H, c)
        best = None
        for digits in itertools.product(range(c.order), repeat=n):
            x = c.points[list(digits[::-1])]
            metric = float(np.sum(np.abs(s_hat - H @ x) ** 2))
            if best is None or metric < best[0]:
                best = (metric, x)
        assert np.array_equal(x_hat, best[1])

    # closed form vs an explicit 2x2 solve at the quarter-turn offset
    for _ in range(100):
        m = 8
        s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        r = 30.0 * np.exp(1j * rng.uniform(-PI, PI, m))
        v1 = 0.1 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        v2 = 0.1 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        z1, z2 = observe_prss(np.eye(m, dtype=complex), s, r, v1, v2, PI / 2)
        a = reconstruct_general((z1, z2), r, PI / 2)
        assert np.max(np.abs(a - lapack_reconstruct((z1, z2), r, PI / 2))) < 1e-12

    # analytic error amplification vs numeric Gram inversion
    for _ in range(100):
        u = np.exp(1j * rng.uniform(-PI, PI))
        phi = rng.uniform(0.05, PI - 0.05) * rng.choice([-1.0, 1.0])
        a = build_measurement_matrix(u, phi)
        assert abs(np.trace(np.linalg.inv(a.T @ a)) - predicted_trace(phi, abs(u))) < 1e-10

    # noiseless ZF recovery on 200 full-rank instances
    for _ in range(200):
        H = np.sqrt(0.5 / 4) * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        x = c16.points[rng.integers(0, 16, 4)]
        assert np.array_equal(zf_linear(H @ x, H, c16), x)

    # scalar rf_baseline ML vs the closed-form Rayleigh QPSK curve
    worst_sigmas = []
    for snr_db, trials in ((6.0, 30_000), (10.0, 30_000)):
        sigma_sq = 10.0 ** (-snr_db / 10.0)
        gamma_b = 1.0 / (2.0 * sigma_sq)
        p_exact = 0.5 * (1.0 - math.sqrt(gamma_b / (1.0 + gamma_b)))
        cfg = ExperimentConfig(
            m=1, n=1, scheme="rf_baseline", detector="ml",
            sigma_v_sq=sigma_sq, master_seed=1060 + int(snr_db),
        )
        per_trial = np.array([run_trial(cfg, t)[0] for t in range(trials)])
        p_hat = per_trial.sum() / (2 * trials)
        se = np.std(per_trial, ddof=1) / (2 * math.sqrt(trials))
        worst_sigmas.append(abs(p_hat - p_exact) / se)
        assert abs(p_hat - p_exact) <= 3.0 * se, (
            f"QPSK Rayleigh BER at {snr_db} dB: {p_hat} vs closed form {p_exact}"
        )
    print(f"CRITERION 6: all oracle equivalences hold "
          f"(QPSK closed-form deviations {worst_sigmas[0]:.2f} and {worst_sigmas[1]:.2f} sigma)")


def test_criterion_7_determinism(tmp_path):
    args = [
        "ber", "--scheme", "rf_baseline", "--detector", "zf", "--m", "4", "--n", "2",
        "--snr-db-list", "2,8", "--trials", "600", "--target-errors", "100",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    identical = (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()

    base = ExperimentConfig(
        m=4, n=2, scheme="rf_baseline", detector="zf",
        snr_db_list=(2.0, 8.0), trials=600, target_errors=100, master_seed=107,
    )
    serial = run_ber_sweep(base)
    eight = run_ber_sweep(replace(base, workers=8))
    counts_equal = all(
        a.bit_errors == b.bit_errors
        and a.bits_total == b.bits_total
        for a, b in zip(serial, eight)
    )
    print(f"CRITERION 7: rerun CSV byte-identical = {identical}, "
          f"serial vs 8-worker counts identical = {counts_equal}")
    assert identical
    assert counts_equal
