"""Rayleigh channel, reference-tone and noise generation from named streams.

Every random quantity is drawn from an explicitly passed generator.  Streams
are derived with counter-based Philox keyed on (seed, trial_index, role), so
trial k's draws are reproducible bit-exactly on any platform and independent
of execution order or worker count.

A stream's key is numpy's
`SeedSequence(seed, spawn_key=(0, trial_index, role)).generate_state(2, uint64)`.
`trial_keys` computes it for a whole block of trials at once, and
`keyed_rng` restarts one generator per process at a key's stream, which
costs a few microseconds where a new `Philox` costs about fifteen.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# role ids for the per-trial streams
STREAM_IDS = {"bits": 0, "channel": 1, "reference": 2, "noise1": 3, "noise2": 4}

_TRIAL_DOMAIN = 0
_POINT_DOMAIN = 1

# trial indices must fit the one 32-bit spawn-key word that trial_keys mixes
MAX_TRIALS = 1 << 32

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hash_steps(hash_const: int, count: int, mult: int) -> tuple[list[int], list[int]]:
    """Hash constants before and after each of `count` successive hash steps."""
    before, after = [], []
    for _ in range(count):
        before.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        after.append(hash_const)
    return before, after


def _hashmix(value: int, before: int, after: int) -> int:
    """SeedSequence's hashmix of a 32-bit word, its hash constant given."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's entropy pool after the seed words and the trial-domain
    word of the spawn key, and the hash constant it reached.

    The pool is numpy's own. The constant takes one hash step per pool word,
    one per ordered pair of distinct pool words, and one per pool word for
    each entropy word past the pool size: the seed's 32-bit words, padded
    to the pool size, then the spawn key's one word.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    pool = np.random.SeedSequence(seed, spawn_key=(_TRIAL_DOMAIN,)).pool
    words = max(-(-seed.bit_length() // 32), _POOL_SIZE) + 1
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (words - _POOL_SIZE)
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32


@lru_cache(maxsize=256)
def _key_words(seed: int, roles: tuple[str, ...]) -> np.ndarray:
    """The words of a trial key's hash that only the seed and the roles
    decide, as one uint32 row: per pool word, the trial word's hash constants
    before and after its step, and the pool word times _MIX_MULT_L; then per
    role and pool word, the role word's hash times _MIX_MULT_R.

    SeedSequence mixes a spawn-key word y into pool word x as
    mix(x, y) = (_MIX_MULT_L x - _MIX_MULT_R y) mod 2^32, xor-shifted, so
    each product that holds no trial word is taken here, once.
    """
    pool, hash_const = _seed_pool(seed)
    before, after = _hash_steps(hash_const, 2 * _POOL_SIZE, _MULT_A)
    n = _POOL_SIZE
    pooled = [_MIX_MULT_L * word & _MASK32 for word in pool]
    roled = [_MIX_MULT_R * _hashmix(STREAM_IDS[role], b, a) & _MASK32
             for role in roles for b, a in zip(before[n:], after[n:])]
    row = np.array(before[:n] + after[:n] + pooled + roled, dtype=np.uint32)
    row.setflags(write=False)  # the cache hands this row to every caller
    return row


# generate_state's hash constants, before and after each output word's step
_OUT_BEFORE, _OUT_AFTER = np.array(_hash_steps(_INIT_B, _POOL_SIZE, _MULT_B), dtype=np.uint32)


def trial_keys(pieces, roles) -> np.ndarray:
    """Philox keys of a block of trials laid end to end from pieces, each a
    (seed, start, stop) of trials start..stop-1 keyed from seed: shape
    (trials, len(roles), 2).

    The key of piece (seed, start, stop)'s trial t and role roles[j] equals
    `SeedSequence(seed, spawn_key=(0, t, STREAM_IDS[roles[j]])).generate_state(2, np.uint64)`
    bit for bit. What a seed and the roles decide is hashed once per pair
    (`_key_words`); the trial words of the whole block, whatever its seeds,
    are hashed in one pass of uint32 arithmetic.
    """
    roles = tuple(roles)
    n = _POOL_SIZE
    tables, firsts, sizes = [], [], []
    at = 0
    for seed, start, stop in pieces:
        if not 0 <= start <= stop <= MAX_TRIALS:
            raise ValueError(f"trial range {start}..{stop} is outside 0..{MAX_TRIALS}")
        tables.append(_key_words(seed, roles))
        firsts.append((start - at) & _MASK32)  # row k holds trial k + first, mod 2^32
        sizes.append(stop - start)
        at += stop - start
    words = np.array(tables, dtype=np.uint32).reshape(-1, (3 + len(roles)) * n)
    firsts = np.array(firsts, dtype=np.uint32)
    if len(sizes) > 1:  # each row gets its piece's words; a lone piece's broadcast
        words, firsts = np.repeat(words, sizes, axis=0), np.repeat(firsts, sizes)
    trials = np.arange(at, dtype=np.uint32) + firsts
    # the trial word into every pool word, then the role word: (trial, role, pool word)
    u = (trials[:, None] ^ words[:, :n]) * words[:, n:2 * n]
    u ^= u >> _XSHIFT
    w = words[:, 2 * n:3 * n] - _MIX_MULT_R * u
    w ^= w >> _XSHIFT
    v = (_MIX_MULT_L * w)[:, None] - words[:, 3 * n:].reshape(-1, len(roles), n)
    v ^= v >> _XSHIFT
    # generate_state: one 32-bit word per pool word, read as little-endian pairs
    out = (v ^ _OUT_BEFORE) * _OUT_AFTER
    out ^= out >> _XSHIFT
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


# Philox's counter and buffer words at the head of a stream; the state setter
# reads Python ints faster than numpy scalars
_ZEROS = (0, 0, 0, 0)


@lru_cache(maxsize=1)
def _keyed_generator() -> tuple[np.random.Generator, dict]:
    """This process's keyed generator and the state dict that restarts it,
    made on first use, so importing ramimo does not load numpy.random."""
    state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": None},
        "buffer": _ZEROS,
        "buffer_pos": 4,  # empty: the next draw starts a fresh block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(np.random.Philox(0)), state


def keyed_rng(key) -> np.random.Generator:
    """This process's shared generator, restarted at the head of the stream
    that the Philox `key` (a row of `trial_keys`) names. The row may also be
    given as its `tolist()`, whose Python ints the state setter reads faster.

    Every call restarts the same generator, so draw from one stream fully
    before asking for the next. The setter copies the state it is given, so
    one dict serves every restart, and only its key changes.
    """
    rng, state = _keyed_generator()
    state["state"]["key"] = key
    rng.bit_generator.state = state
    return rng


def stream_rng(seed: int, trial_index: int, stream: str) -> np.random.Generator:
    """Independent Philox generator for one (seed, trial, role) triple."""
    key = trial_keys(((seed, trial_index, trial_index + 1),), (stream,))[0, 0]
    return np.random.Generator(np.random.Philox(key=key))


def derive_point_seed(seed: int, point_index: int) -> int:
    """64-bit sub-seed for sweep point `point_index`, disjoint from trial streams."""
    key = np.random.SeedSequence(seed, spawn_key=(_POINT_DOMAIN, point_index, 0))
    return int(key.generate_state(1, np.uint64)[0])


def _check_dims(M: int, N: int) -> None:
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be positive, got M={M}, N={N}")


def draw_complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """a + 1j*b with a, then b, drawn i.i.d. standard normal: the unscaled
    draw behind the channel and the noise."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw_phasors(M: int, rng: np.random.Generator) -> np.ndarray:
    """Length-M unit phasors exp(1j*phase), phase uniform on (-pi, pi]."""
    return np.exp(1j * (np.pi - rng.uniform(0.0, 2.0 * np.pi, size=M)))


def reference_magnitude(N: int, rsr_db: float) -> float:
    """|r_m| for a reference-to-signal ratio: one user's receiver power is 1/N."""
    return np.sqrt(10.0 ** (rsr_db / 10.0) / N)


def noise_scale(sigma_v_sq: float) -> float:
    """Factor that turns a `draw_complex_normal` draw into variance sigma_v_sq."""
    return np.sqrt(0.5 * sigma_v_sq)


def draw_channel(M: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an M x N Rayleigh channel: i.i.d. CN(0, 1/N) entries."""
    _check_dims(M, N)
    return np.sqrt(0.5 / N) * draw_complex_normal((M, N), rng)


def draw_reference(M: int, N: int, rsr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the length-M reference tone r for a target reference-to-signal ratio.

    With unit-energy symbols one user's contribution at a receiver has power
    1/N, so |r_m| = sqrt(10^(rsr_db/10) / N) exactly; only the per-receiver
    phase, uniform on (-pi, pi], consumes randomness.
    """
    _check_dims(M, N)
    return reference_magnitude(N, rsr_db) * draw_phasors(M, rng)


def draw_noise(M: int, sigma_v_sq: float, rng: np.random.Generator) -> np.ndarray:
    """Draw length-M circular complex Gaussian noise of variance sigma_v_sq."""
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    if sigma_v_sq < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma_v_sq}")
    return noise_scale(sigma_v_sq) * draw_complex_normal(M, rng)
