"""Square-QAM alphabets with Gray bit labels and the nearest-point quantizer.

The bit mapping is Gray per axis: the first half of each symbol's label
selects the real amplitude, the second half the imaginary amplitude, and
grid-adjacent amplitudes differ in exactly one bit.  Point index equals the
integer value of its bit label, so modulation is a table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Unit-energy square QAM alphabet.

    Attributes:
        order: Number of points J (a power of 4).
        points: Complex array of length J, mean |point|^2 == 1; the point at
            index i carries the bit label format(i, f"0{bits_per_symbol}b").
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bits_per_symbol", self.order.bit_length() - 1)
        self.points.flags.writeable = False


def _gray_inverse(g: int) -> int:
    i = g
    while g:
        g >>= 1
        i ^= g
    return i


@lru_cache(maxsize=8)
def make_qam(order: int) -> Constellation:
    """Build a Gray-labeled square QAM constellation with unit average energy.

    Args:
        order: Alphabet size, one of 4, 16, 64.

    Returns:
        One cached Constellation per order, shared by every caller (its
        points are read-only); the point at index v carries bit label
        bin(v), whose high half Gray-codes the real amplitude and low half
        the imaginary amplitude.

    Raises:
        ValueError: If order is not square QAM.
    """
    if order not in (4, 16, 64):
        raise ValueError(f"order must be one of 4, 16, 64 (square QAM), got {order}")
    k = order.bit_length() - 1
    side = 1 << (k // 2)
    # amplitude of Gray group g on one axis: grid level gray_inverse(g)
    axis = np.array([2 * _gray_inverse(g) - (side - 1) for g in range(side)], dtype=float)
    re = np.repeat(axis, side)
    im = np.tile(axis, side)
    points = re + 1j * im
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    return Constellation(order=order, points=points)


def modulate(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit sequence to symbols, bits_per_symbol bits at a time.

    Args:
        bits: 0/1 array whose length is a multiple of c.bits_per_symbol.
        c: Target constellation.

    Returns:
        Complex symbol vector of length len(bits) / bits_per_symbol.
    """
    bits = np.asarray(bits, dtype=np.int64)
    k = c.bits_per_symbol
    if bits.ndim != 1 or bits.size % k:
        raise ValueError(f"bit count {bits.size} is not a multiple of {k}")
    groups = bits.reshape(-1, k)
    idx = groups @ (1 << np.arange(k - 1, -1, -1))
    return c.points[idx]


def quantize(v: np.ndarray, c: Constellation) -> np.ndarray:
    """Replace each element with its nearest constellation point.

    Ties are broken toward the lowest point index, so the output is a
    deterministic function of the input.
    """
    v = np.asarray(v, dtype=complex)
    d2 = np.abs(v[..., None] - c.points) ** 2
    return c.points[np.argmin(d2, axis=-1)]


def demap(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Recover the bit sequence from exact constellation points.

    Inverse of modulate; inputs are expected to come from quantize, so the
    match is exact, not nearest-neighbor.

    Raises:
        ValueError: If any symbol is not a point of the alphabet.
    """
    symbols = np.asarray(symbols, dtype=complex)
    hits = symbols[:, None] == c.points
    found = hits.any(axis=1)
    if not found.all():
        bad = symbols[~found][0]
        raise ValueError(f"symbol {bad} is not a constellation point")
    idx = np.argmax(hits, axis=1)
    k = c.bits_per_symbol
    return (idx[:, None] >> np.arange(k - 1, -1, -1) & 1).astype(np.int64).ravel()
