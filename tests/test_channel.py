import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramimo.channel import (
    MAX_TRIALS,
    STREAM_IDS,
    derive_point_seed,
    draw_channel,
    draw_noise,
    draw_reference,
    keyed_rng,
    stream_rng,
    trial_keys,
)


def _seed_sequence_key(seed, trial, role):
    """The definition trial_keys reproduces."""
    return np.random.SeedSequence(seed, spawn_key=(0, trial, STREAM_IDS[role])).generate_state(
        2, np.uint64
    )


def _seed_sequence_rng(seed, trial, role):
    ss = np.random.SeedSequence(seed, spawn_key=(0, trial, STREAM_IDS[role]))
    return np.random.Generator(np.random.Philox(ss))


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


def test_noise_needs_a_receiver():
    with pytest.raises(ValueError, match="M must be positive"):
        draw_noise(0, 0.1, stream_rng(5, 0, "noise1"))


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**256),
    trial=st.integers(0, MAX_TRIALS - 1),
    roles=st.permutations(sorted(STREAM_IDS)),
)
def test_trial_keys_match_seed_sequence(seed, trial, roles):
    keys = trial_keys([(seed, trial, trial + 1)], roles)
    assert keys.shape == (1, 5, 2) and keys.dtype == np.uint64
    for j, role in enumerate(roles):
        assert np.array_equal(keys[0, j], _seed_sequence_key(seed, trial, role)), role


@pytest.mark.parametrize("seed", [0, 104, 20260808, 2**63 + 12345, 2**128 - 1, 2**128, 2**130,
                                  2**255 + 1])
def test_trial_key_blocks_match_seed_sequence(seed):
    roles = ("noise2", "bits", "channel")
    for start, stop in ((0, 40), (77, 78), (MAX_TRIALS - 5, MAX_TRIALS)):
        keys = trial_keys([(seed, start, stop)], roles)
        assert keys.shape == (stop - start, 3, 2)
        for i, t in enumerate(range(start, stop)):
            for j, role in enumerate(roles):
                assert np.array_equal(keys[i, j], _seed_sequence_key(seed, t, role))
    assert trial_keys([(seed, 5, 5)], roles).shape == (0, 3, 2)


def _assert_block_keys_match(pieces, roles):
    keys = trial_keys(pieces, roles)
    rows = [(seed, t) for seed, start, stop in pieces for t in range(start, stop)]
    assert keys.shape == (len(rows), len(roles), 2) and keys.dtype == np.uint64
    for row, (seed, t) in zip(keys, rows):
        for key, role in zip(row, roles):
            assert np.array_equal(key, _seed_sequence_key(seed, t, role)), (seed, t, role)


@pytest.mark.parametrize("pieces", [
    # two points' 64-bit sub-seeds, as a BER chunk across points keys them
    [(derive_point_seed(104, 0), 250, 256), (derive_point_seed(104, 1), 0, 5)],
    # a one-trial piece and an empty one between others
    [(2**64 - 1, 40, 41), (11, 8, 8), (2**63 + 5, 0, 3)],
    # a seed of 2^128 or more takes another hash constant than one below it
    [(2**128, 5, 8), (2**128 - 1, 5, 8), (2**200 + 9, MAX_TRIALS - 2, MAX_TRIALS)],
    [(7, 3, 4)],
    [],
])
def test_block_keys_of_pieces_match_seed_sequence(pieces):
    _assert_block_keys_match(pieces, ("noise1", "reference", "bits"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pieces=st.lists(
        st.tuples(st.integers(0, 2**140), st.integers(0, MAX_TRIALS - 6), st.integers(0, 5))
        .map(lambda p: (p[0], p[1], p[1] + p[2])),
        max_size=4,
    ),
    roles=st.permutations(sorted(STREAM_IDS)),
)
def test_any_block_of_pieces_keys_each_row_as_seed_sequence(pieces, roles):
    _assert_block_keys_match(pieces, roles)


def test_a_bad_piece_anywhere_in_a_block_is_refused():
    with pytest.raises(ValueError):
        trial_keys([(1, 0, 4), (2, 5, 3)], ("bits",))


@pytest.mark.parametrize("seed,start,stop", [
    (-1, 0, 1),  # SeedSequence refuses a negative seed; the word split must not loop on it
    (-(2**70), 0, 1),
    (1, -1, 1),
    (1, 3, 2),
    (1, 0, MAX_TRIALS + 1),  # index 2^32 would take a second spawn-key word
])
def test_trial_keys_refuse_bad_ranges(seed, start, stop):
    with pytest.raises(ValueError):
        trial_keys([(seed, start, stop)], ("bits",))


def test_keyed_rng_restarts_streams_exactly():
    keys = trial_keys([(2**70 + 3, 9, 12)], sorted(STREAM_IDS))
    for i, t in enumerate(range(9, 12)):
        for j, role in enumerate(sorted(STREAM_IDS)):
            # leave the shared generator mid-stream, with a buffered 32-bit half
            keyed_rng(keys[i, j - 1]).integers(0, 2, 3)
            keyed_rng(keys[i, j - 1]).uniform(size=5)
            for draw in (lambda g: g.standard_normal(1000), lambda g: g.integers(0, 2, 1000),
                         lambda g: g.uniform(0.0, 2.0, 1000)):
                expected = draw(_seed_sequence_rng(2**70 + 3, t, role))
                assert np.array_equal(draw(stream_rng(2**70 + 3, t, role)), expected)
                assert np.array_equal(draw(keyed_rng(keys[i, j])), expected)
                assert np.array_equal(draw(keyed_rng(keys[i, j].tolist())), expected)
