import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramimo.reconstruct
from ramimo.frontend import observe_prss
from ramimo.reconstruct import (
    DegenerateReferenceError,
    SingularOffsetError,
    predicted_mse,
    predicted_trace,
    reconstruct_general,
    reconstruct_optimal,
)
from oracles import build_measurement_matrix, effective_observations, lapack_reconstruct

PI = np.pi


def _random_instance(rng, m=6, sigma=0.1, r_mag=50.0, phi=PI / 2):
    s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    r = r_mag * np.exp(1j * rng.uniform(-PI, PI, m))
    v1 = np.sqrt(sigma / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    v2 = np.sqrt(sigma / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    z = observe_prss(np.eye(m, dtype=complex), s, r, v1, v2, phi)
    return z, r, s


def test_effective_observations_zero_signal():
    r = np.array([2 + 0j, -3j])
    y1, y2 = effective_observations((np.abs(r), np.abs(r)), r)
    assert np.array_equal(y1, np.zeros(2))
    assert np.array_equal(y2, np.zeros(2))


def test_effective_observations_worked_example():
    r = np.array([100.0 + 0j])
    z = observe_prss(np.array([[1.0 + 0j]]), np.array([1 + 2j]), r,
                     np.zeros(1), np.zeros(1), PI / 2)
    y1, y2 = effective_observations(z, r)
    assert abs(y1[0] - (np.sqrt(10205) - 100)) < 1e-12
    assert abs(y2[0] - (np.sqrt(9605) - 100)) < 1e-12
    assert abs(y1[0] - 1.0198) < 1e-4
    assert abs(y2[0] - (-1.9949)) < 1e-4


def test_effective_observations_zero_reference_passthrough():
    # r = 0 is degenerate for reconstruction but subtraction still passes z through
    z = (np.array([1.5]), np.array([2.5]))
    y1, y2 = effective_observations(z, np.zeros(1))
    assert y1[0] == 1.5 and y2[0] == 2.5
    with pytest.raises(ValueError):
        effective_observations(z, np.zeros(2))


def test_reconstruct_optimal_zero_signal():
    r = 10.0 * np.exp(1j * np.array([0.3, -1.2]))
    z = observe_prss(np.eye(2, dtype=complex), np.zeros(2, dtype=complex), r,
                     np.zeros(2), np.zeros(2), PI / 2)
    s_hat = reconstruct_optimal(z, r)
    assert np.max(np.abs(s_hat)) < 1e-12


def test_reconstruct_optimal_worked_example_and_residual_halving():
    s = np.array([1 + 2j])
    H = np.array([[1.0 + 0j]])
    zero = np.zeros(1)
    errors = {}
    for mag in (100.0, 200.0):
        r = np.array([mag + 0j])
        z = observe_prss(H, s, r, zero, zero, PI / 2)
        s_hat = reconstruct_optimal(z, r, sign=1)
        # independent scalar oracle: exact magnitude arithmetic
        y1 = abs(mag + (1 + 2j)) - mag
        y2 = abs(mag + 1j * (1 + 2j)) - mag
        assert abs(s_hat[0] - (y1 - 1j * y2)) < 1e-12
        errors[mag] = abs(s_hat[0] - s[0])
    assert abs(errors[100.0] - abs(1.0198000393982198 + 1.9948980919870678j - (1 + 2j))) < 1e-12
    ratio = errors[200.0] / errors[100.0]
    assert 0.49 < ratio < 0.52  # second-order residual scales as 1/|r|


def test_residual_halves_when_reference_doubles():
    rng = np.random.default_rng(7)
    m = 16
    for _ in range(20):
        s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phases = rng.uniform(-PI, PI, m)
        norms = {}
        for mag in (200.0, 400.0):
            r = mag * np.exp(1j * phases)
            z = observe_prss(np.eye(m, dtype=complex), s, r, np.zeros(m), np.zeros(m), PI / 2)
            norms[mag] = np.linalg.norm(reconstruct_optimal(z, r) - s)
        assert 0.47 < norms[400.0] / norms[200.0] < 0.53


def test_reconstruct_optimal_negative_sign():
    rng = np.random.default_rng(0)
    m = 8
    s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    r = 1e5 * np.exp(1j * rng.uniform(-PI, PI, m))
    z = observe_prss(np.eye(m, dtype=complex), s, r, np.zeros(m), np.zeros(m), -PI / 2)
    s_hat = reconstruct_optimal(z, r, sign=-1)
    assert np.max(np.abs(s_hat - s)) < 1e-3
    with pytest.raises(ValueError):
        reconstruct_optimal(z, r, sign=2)


def test_reconstruct_degenerate_reference():
    z = (np.ones(2), np.ones(2))
    r = np.array([1.0 + 0j, 0.0 + 0j])
    with pytest.raises(DegenerateReferenceError):
        reconstruct_optimal(z, r)
    for phi in (PI / 2, PI / 4):
        with pytest.raises(DegenerateReferenceError):
            reconstruct_general(z, r, phi)


def test_measurement_matrix_examples():
    a = build_measurement_matrix(1.0 + 0j, PI / 2)
    assert np.allclose(a, [[1, 0], [0, -1]], atol=1e-12)
    a0 = build_measurement_matrix(1.0 + 0j, 0.0)
    assert np.allclose(a0[0], a0[1], atol=1e-12)  # both rows [1, 0]: singular
    aj = build_measurement_matrix(1j, PI / 2)
    assert np.allclose(aj, [[0, -1], [-1, 0]], atol=1e-12)


def test_measurement_matrix_row_structure():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = np.exp(1j * rng.uniform(-PI, PI))
        phi = rng.uniform(-PI, PI)
        a = build_measurement_matrix(u, phi)
        rot = u * np.exp(1j * phi)
        assert np.allclose(a, [[u.real, -u.imag], [rot.real, -rot.imag]], atol=1e-15)
        assert abs(np.linalg.det(a) + np.sin(phi)) < 1e-12
    # a vector of normalizers gives one matrix per element, equal to the scalar call
    u = np.exp(1j * rng.uniform(-PI, PI, 7))
    phi = rng.uniform(-PI, PI)
    stack = build_measurement_matrix(u, phi)
    assert stack.shape == (7, 2, 2)
    for i in range(u.size):
        assert np.array_equal(stack[i], build_measurement_matrix(u[i], phi))


def test_general_equals_optimal_at_quarter_turn():
    # the closed form against an explicit 2x2 solve, not against itself
    rng = np.random.default_rng(2)
    for sign in (1, -1):
        for _ in range(50):
            z, r, _ = _random_instance(rng, phi=sign * PI / 2)
            oracle = lapack_reconstruct(z, r, sign * PI / 2)
            assert np.max(np.abs(reconstruct_optimal(z, r, sign=sign) - oracle)) < 1e-12
            assert np.max(np.abs(reconstruct_general(z, r, sign * PI / 2) - oracle)) < 1e-12


def test_general_is_the_closed_form_at_exact_quarter_turns():
    rng = np.random.default_rng(9)
    for sign in (1, -1):
        for _ in range(20):
            z, r, _ = _random_instance(rng, phi=sign * PI / 2)
            a = reconstruct_general(z, r, sign * PI / 2)
            assert a.tobytes() == reconstruct_optimal(z, r, sign).tobytes()


def test_general_solves_just_off_quarter_turns(monkeypatch):
    def closed_form(*_):
        raise AssertionError("the closed form ran off the quarter turn")

    monkeypatch.setattr(ramimo.reconstruct, "reconstruct_optimal", closed_form)
    rng = np.random.default_rng(10)
    for phi in (PI / 2 + 1e-9, PI / 2 - 1e-9, -PI / 2 + 1e-9, -PI / 2 - 1e-9):
        for _ in range(20):
            z, r, _ = _random_instance(rng, phi=phi)
            y1, y2 = effective_observations(z, r)
            sign = 1 if phi > 0 else -1
            closed = r / np.abs(r) * (y1 - 1j * sign * y2)  # conj(u) (y1 - j sign y2)
            assert np.max(np.abs(reconstruct_general(z, r, phi) - closed)) < 1e-6


def test_general_singular_offset():
    rng = np.random.default_rng(3)
    z, r, _ = _random_instance(rng)
    for phi in (0.0, PI, -PI, 1e-12):
        with pytest.raises(SingularOffsetError):
            reconstruct_general(z, r, phi)


def test_general_noiseless_oblique_offset():
    rng = np.random.default_rng(4)
    m = 32
    s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    r = 1e4 * np.exp(1j * rng.uniform(-PI, PI, m))
    z = observe_prss(np.eye(m, dtype=complex), s, r, np.zeros(m), np.zeros(m), PI / 4)
    s_hat = reconstruct_general(z, r, PI / 4)
    assert np.max(np.abs(s_hat - s) / np.abs(s)) < 1e-3


_PARTS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
_EPS = np.finfo(float).eps


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    re=_PARTS, im=_PARTS,
    theta=st.floats(-PI, PI),
    phi=st.floats(-PI, PI).filter(lambda p: abs(np.sin(p)) >= 0.05),
)
def test_general_inverts_the_first_order_model_at_every_usable_offset(re, im, theta, phi):
    """Noiseless y1 = Re(u s), y2 = Re(u e^{j phi} s) give back s to within
    32 eps (|y1| + |y2|) / sin^2(phi).

    The bound is a first-order error analysis with S = |sin phi|:
    - computing y1 and y2 here, with |r| = |s|, and the readouts' z - |r|
      perturb them by at most 2.7 eps |s| and 5.9 eps |s|;
    - the cos and sin values, the product, difference and quotient of
      (y1 cos - y2) / sin add 1.5 eps |s| / S + 2 eps |s| to Im(u s), so it is
      off by at most 12.1 eps |s| / S;
    - y1's own error, the product with conj(u) and |u|^2 = 1 +- 3 eps add
      7.4 eps |s|;
    - in all, 19.6 eps |s| / S, and |s| <= sqrt(2) (|y1| + |y2|) / S, so
      27.7 eps (|y1| + |y2|) / S^2, and 32 leaves room for second-order terms.
    The worst of 200 000 random cases reached 3.7.
    """
    s = complex(re, im)
    r = np.array([(abs(s) or 1.0) * np.exp(1j * theta)])
    u = np.conj(r) / np.abs(r)  # bit for bit the u that reconstruct_general computes
    y1, y2 = (u * s).real, (u * np.exp(1j * phi) * s).real
    s_hat = reconstruct_general((y1 + np.abs(r), y2 + np.abs(r)), r, phi)
    bound = 32 * _EPS * (abs(y1[0]) + abs(y2[0])) / np.sin(phi) ** 2
    assert abs(s_hat[0] - s) <= bound


def test_general_matches_a_lapack_solve_at_oblique_offsets():
    # both invert the same y1, y2 to within a few eps (|y1| + |y2|) / |sin phi|
    # of the exact inverse; 64 eps (|y1| + |y2|) / sin^2(phi) leaves wide room
    rng = np.random.default_rng(11)
    for phi in (PI / 4, 0.9, 0.3, -2.5, PI / 2 + 1e-6):
        z, r, _ = _random_instance(rng, m=64, phi=phi)
        y1, y2 = effective_observations(z, r)
        scale = (np.abs(y1) + np.abs(y2)) / np.sin(phi) ** 2
        err = np.abs(reconstruct_general(z, r, phi) - lapack_reconstruct(z, r, phi))
        assert np.all(err <= 64 * _EPS * scale)


def test_predicted_trace_values():
    assert abs(predicted_trace(PI / 2) - 2.0) < 1e-12
    assert abs(predicted_trace(PI / 4) - 4.0) < 1e-12
    with pytest.raises(SingularOffsetError):
        predicted_trace(0.0)


def test_predicted_trace_matches_gram_inversion():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = np.exp(1j * rng.uniform(-PI, PI))
        phi = rng.uniform(0.05, PI - 0.05) * rng.choice([-1.0, 1.0])
        a = build_measurement_matrix(u, phi)
        numeric = np.trace(np.linalg.inv(a.T @ a))
        assert abs(numeric - predicted_trace(phi, abs(u))) < 1e-10


def test_predicted_mse_values():
    assert abs(predicted_mse(PI / 2, 0.1) - 0.1) < 1e-15
    assert abs(predicted_mse(PI / 6, 0.1) - 0.4) < 1e-12
    assert predicted_mse(-PI / 2, 0.1) == predicted_mse(PI / 2, 0.1)
    with pytest.raises(SingularOffsetError):
        predicted_mse(PI, 0.1)


def test_pipeline_noise_variance_at_high_reference():
    # strong reference: effective noise variance approaches the receiver's
    rng = np.random.default_rng(6)
    sigma = 0.1
    m, n, trials = 500, 2, 40
    errors = []
    for _ in range(trials):
        H = np.sqrt(0.5 / n) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        x = rng.choice(np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2), n)
        r = np.sqrt(10**4.5 / n) * np.exp(1j * rng.uniform(-PI, PI, m))
        v1 = np.sqrt(sigma / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        v2 = np.sqrt(sigma / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        z = observe_prss(H, x, r, v1, v2, PI / 2)
        errors.append(np.abs(reconstruct_optimal(z, r) - H @ x) ** 2)
    est = np.mean(errors)  # mean ||s_hat - s||^2 per receiver
    assert abs(est / sigma - 1.0) < 0.05
