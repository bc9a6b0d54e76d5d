import numpy as np
import pytest

from ramimo.constellation import demap, make_qam, modulate, quantize


def _label(c, i: int) -> str:
    """Bit label of point i by the module's contract: i in binary."""
    return format(i, f"0{c.bits_per_symbol}b")


@pytest.mark.parametrize("order", [4, 16, 64])
def test_unit_energy_and_distinctness(order):
    c = make_qam(order)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    assert len(set(np.round(c.points, 12))) == order
    labels = ["".join(map(str, b)) for b in demap(c.points, c).reshape(order, -1)]
    assert labels == [_label(c, i) for i in range(order)]
    assert len(set(labels)) == order
    assert all(len(lbl) == c.bits_per_symbol for lbl in labels)


def test_qam4_points():
    c = make_qam(4)
    expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    got = {complex(np.round(p * np.sqrt(2), 9)) for p in c.points}
    assert got == expected


def test_qam16_points_grid():
    c = make_qam(16)
    scaled = c.points * np.sqrt(10)
    for p in scaled:
        assert round(p.real) in (-3, -1, 1, 3) and abs(p.real - round(p.real)) < 1e-9
        assert round(p.imag) in (-3, -1, 1, 3) and abs(p.imag - round(p.imag)) < 1e-9


def test_alphabets_are_built_once_and_read_only():
    c = make_qam(16)
    assert make_qam(16) is c
    with pytest.raises(ValueError):
        c.points[0] = 0.0


@pytest.mark.parametrize("order", [3, 8, 32, 0, 256])
def test_non_square_order_rejected(order):
    with pytest.raises(ValueError):
        make_qam(order)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_adjacency(order):
    c = make_qam(order)
    labels = {complex(np.round(p, 12)): _label(c, i) for i, p in enumerate(c.points)}
    res = np.unique(np.round(c.points.real, 12))
    step = res[1] - res[0]
    for i, p in enumerate(c.points):
        lbl = _label(c, i)
        for neighbor in (p + step, p + 1j * step):
            key = complex(np.round(neighbor, 12))
            if key in labels:
                dist = sum(a != b for a, b in zip(lbl, labels[key]))
                assert dist == 1, f"{p} -> {neighbor}: labels {lbl} vs {labels[key]}"


def test_modulate_empty():
    c = make_qam(4)
    empty = modulate(np.array([], dtype=int), c)
    assert empty.size == 0
    assert empty.dtype == complex and empty.shape == (0,)


def test_modulate_by_label():
    c = make_qam(16)
    for idx in (0, 5, 15):
        bits = np.array([int(b) for b in _label(c, idx)])
        assert modulate(bits, c)[0] == c.points[idx]
    two = np.array([int(b) for b in _label(c, 3) + _label(c, 9)])
    assert np.array_equal(modulate(two, c), c.points[[3, 9]])


def test_modulate_length_contract():
    c = make_qam(16)
    rng = np.random.default_rng(0)
    n = 5
    bits = rng.integers(0, 2, 2 * n * c.bits_per_symbol)
    assert modulate(bits, c).shape == (2 * n,)
    with pytest.raises(ValueError):
        modulate(bits[:-1], c)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_modulate_demap_roundtrip(order):
    c = make_qam(order)
    rng = np.random.default_rng(order)
    for _ in range(200):
        bits = rng.integers(0, 2, c.bits_per_symbol * rng.integers(1, 9))
        assert np.array_equal(demap(modulate(bits, c), c), bits)


def test_quantize_nearest():
    c = make_qam(4)
    assert quantize(np.array([0.9 + 0.9j]), c)[0] == (1 + 1j) / np.sqrt(2)


@pytest.mark.parametrize("order", [4, 16])
def test_quantize_identity_on_points(order):
    c = make_qam(order)
    assert np.array_equal(quantize(c.points, c), c.points)


def test_quantize_tie_lowest_index():
    c = make_qam(4)
    # origin is equidistant from all four points
    assert quantize(np.array([0j]), c)[0] == c.points[0]


def test_quantize_idempotent():
    c = make_qam(16)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    once = quantize(v, c)
    assert np.array_equal(quantize(once, c), once)


def test_demap_empty_and_offgrid():
    c = make_qam(4)
    empty = demap(np.array([], dtype=complex), c)
    assert empty.size == 0
    assert empty.dtype == np.int64 and empty.shape == (0,)
    with pytest.raises(ValueError):
        demap(np.array([0.5 + 0.5j]), c)
