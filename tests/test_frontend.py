import numpy as np
import pytest

from ramimo.frontend import observe_prss, observe_single


def test_scalar_magnitude():
    z = observe_single(np.array([[1.0 + 0j]]), np.array([3 + 4j]), np.zeros(1), np.zeros(1))
    assert z[0] == 5.0


def test_zero_signal_gives_reference_magnitude():
    r = np.array([3 + 4j, -2j, 1 + 0j])
    z = observe_single(np.zeros((3, 2), dtype=complex), np.zeros(2, dtype=complex), r, np.zeros(3))
    assert np.allclose(z, np.abs(r), atol=1e-15)


def test_matches_per_element_oracle():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z = observe_single(H, x, r, v)
    for m in range(5):
        expected = abs(sum(H[m, n] * x[n] for n in range(3)) + v[m] + r[m])
        assert abs(z[m] - expected) < 1e-15


def test_dimension_mismatch():
    H = np.zeros((3, 2), dtype=complex)
    with pytest.raises(ValueError):
        observe_single(H, np.zeros(3, dtype=complex), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        observe_single(H, np.zeros(2, dtype=complex), np.zeros(2), np.zeros(3))


def test_prss_identical_slots_at_zero_offset():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z1, z2 = observe_prss(H, x, r, v, v, 0.0)
    assert np.array_equal(z1, z2)


def test_prss_quarter_turn_example():
    z1, z2 = observe_prss(
        np.array([[1.0 + 0j]]), np.array([1 + 2j]), np.array([100.0 + 0j]),
        np.zeros(1), np.zeros(1), np.pi / 2,
    )
    # |101 + 2j| and |98 + 1j|, exact magnitude arithmetic
    assert abs(z1[0] - np.sqrt(10205)) < 1e-10
    assert abs(z2[0] - np.sqrt(9605)) < 1e-10


def test_global_phase_invariance_without_reference():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zero = np.zeros(4)
    z_a = observe_single(H, x, zero, zero)
    z_b = observe_single(H, x * np.exp(1j * 0.73), zero, zero)
    assert np.allclose(z_a, z_b, atol=1e-12)


def test_per_receiver_independence():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    base = observe_single(H, x, r, v)
    H2 = H.copy()
    H2[2] += 1.0
    bumped = observe_single(H2, x, r, v)
    assert bumped[2] != base[2]
    mask = np.arange(5) != 2
    assert np.array_equal(bumped[mask], base[mask])


def test_nonnegative_outputs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z1, z2 = observe_prss(H, x, r, v1, v2, rng.uniform(-np.pi, np.pi))
        assert np.all(z1 >= 0) and np.all(z2 >= 0)


def test_stacked_readouts_equal_each_trial():
    rng = np.random.default_rng(2)
    B, M, N = 3, 5, 3
    H = rng.standard_normal((B, M, N)) + 1j * rng.standard_normal((B, M, N))
    x = rng.standard_normal((B, N)) + 1j * rng.standard_normal((B, N))
    r = rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M))
    v1, v2 = (rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M)) for _ in range(2))
    z1, z2 = observe_prss(H, x, r, v1, v2, 0.9)
    for b in range(B):
        one1, one2 = observe_prss(H[b], x[b], r[b], v1[b], v2[b], 0.9)
        assert z1[b].tobytes() == one1.tobytes()
        assert z2[b].tobytes() == one2.tobytes()
    with pytest.raises(ValueError):
        observe_single(H, x[:2], r, v1)
    with pytest.raises(ValueError):
        observe_single(H, x, r[0], v1)
    with pytest.raises(ValueError):
        observe_single(H[0, 0], x[0], r[0], v1[0])
