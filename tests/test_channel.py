import numpy as np
import pytest

from ramimo import (
    derive_point_seed,
    draw_channel,
    draw_noise,
    draw_reference,
    stream_rng,
)


def test_channel_unit_variance_moments():
    rng = stream_rng(1, 0, "channel")
    H = draw_channel(10**6, 1, rng)
    assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.01
    # circularity: pseudo-variance vanishes
    assert abs(np.mean(H**2)) < 0.006


def test_channel_variance_scales_with_n():
    rng = stream_rng(2, 0, "channel")
    samples = [draw_channel(8, 4, rng) for _ in range(3000)]
    mean_sq = np.mean([np.mean(np.abs(H) ** 2) for H in samples])
    assert abs(mean_sq - 0.25) < 0.005


@pytest.mark.parametrize("m,n", [(0, 4), (4, 0), (-1, 2)])
def test_channel_bad_dims(m, n):
    with pytest.raises(ValueError):
        draw_channel(m, n, stream_rng(0, 0, "channel"))


def test_reference_magnitude_exact():
    r = draw_reference(16, 4, 26.0, stream_rng(3, 0, "reference"))
    expected = np.sqrt(10**2.6 / 4)
    assert np.max(np.abs(np.abs(r) - expected)) < 1e-12
    assert abs(expected - 9.976) < 1e-3
    r0 = draw_reference(5, 1, 0.0, stream_rng(3, 1, "reference"))
    assert np.max(np.abs(np.abs(r0) - 1.0)) < 1e-12
    r30 = draw_reference(5, 1, 30.0, stream_rng(3, 2, "reference"))
    assert np.max(np.abs(np.abs(r30) ** 2 - 1000.0)) < 1e-9


def test_reference_phase_range_and_spread():
    r = draw_reference(10**5, 2, 20.0, stream_rng(4, 0, "reference"))
    phase = np.angle(r)
    assert np.all(phase > -np.pi) and np.all(phase <= np.pi)
    # uniform phases average out
    assert abs(np.mean(np.exp(1j * phase))) < 0.02


def test_noise_zero_variance():
    v = draw_noise(64, 0.0, stream_rng(5, 0, "noise1"))
    assert np.all(v == 0)


def test_noise_moments():
    v = draw_noise(10**6, 0.1, stream_rng(6, 0, "noise1"))
    assert abs(np.mean(np.abs(v) ** 2) - 0.1) < 0.001
    assert abs(np.var(v.real) - 0.05) < 0.0005
    assert abs(np.var(v.imag) - 0.05) < 0.0005
    assert abs(np.mean(v**2)) < 0.001


def test_noise_negative_variance():
    with pytest.raises(ValueError):
        draw_noise(4, -0.1, stream_rng(5, 0, "noise1"))


def test_streams_deterministic_and_independent():
    a = draw_channel(4, 2, stream_rng(7, 3, "channel"))
    b = draw_channel(4, 2, stream_rng(7, 3, "channel"))
    assert np.array_equal(a, b)
    c = draw_channel(4, 2, stream_rng(7, 4, "channel"))
    d = draw_channel(4, 2, stream_rng(8, 3, "channel"))
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    n1 = draw_noise(8, 1.0, stream_rng(7, 3, "noise1"))
    n2 = draw_noise(8, 1.0, stream_rng(7, 3, "noise2"))
    assert not np.array_equal(n1, n2)


def test_generator_golden_value():
    # pins the documented counter-based generator keying across platforms
    h = draw_channel(1, 1, stream_rng(123, 0, "channel"))[0, 0]
    assert abs(h - (-0.19871583394530642 + 0.006115946800692835j)) < 1e-15


def test_point_seed_derivation_stable():
    assert derive_point_seed(123, 0) == 13137382374699748859
    assert derive_point_seed(123, 1) == 6456723570319491852
    assert derive_point_seed(123, 0) != derive_point_seed(124, 0)
