from fractions import Fraction

import numpy as np
import pytest

from triqrng.rayleigh import (
    _savitzky_golay_weights,
    phase_uniform,
    rayleigh_raw,
    savitzky_golay,
    savitzky_golay_coefficients,
)
from triqrng.stats import ks_test


def test_pythagorean_triple():
    assert rayleigh_raw([3.0], [4.0])[0] == pytest.approx(5.0, abs=0)


def test_origin():
    assert rayleigh_raw([0.0], [0.0])[0] == 0.0


def test_length_mismatch():
    with pytest.raises(ValueError):
        rayleigh_raw([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        phase_uniform([1.0, 2.0], [1.0])


def test_amplitude_identity_exact():
    rng = np.random.default_rng(0)
    i = rng.standard_normal(100_000)
    q = rng.standard_normal(100_000)
    r = rayleigh_raw(i, q)
    rel = np.abs(r**2 - (i**2 + q**2)) / (i**2 + q**2)
    assert rel.max() <= 2.0**-40


def _is_correctly_rounded_sqrt(r: float, s: Fraction) -> bool:
    # r is the float nearest sqrt(s) when s lies between the squares of
    # the midpoints from r to its two float neighbours
    here = Fraction(r)
    lo = (Fraction(np.nextafter(r, 0.0)) + here) / 2
    hi = (here + Fraction(np.nextafter(r, np.inf))) / 2
    return lo * lo <= s <= hi * hi


def test_amplitudes_of_half_integer_codes_are_correctly_rounded():
    # the pipeline's inputs: 11-bit truncated codes + 0.5, plus extremes
    rng = np.random.default_rng(7)
    ci = np.concatenate([[-1024, 1023, 0, -1], rng.integers(-1024, 1024, 20_000)])
    cq = np.concatenate([[-1024, -1024, 1023, 0], rng.integers(-1024, 1024, 20_000)])
    i, q = ci + 0.5, cq + 0.5
    r = rayleigh_raw(i, q)
    wrong = [k for k in range(r.size)
             if not _is_correctly_rounded_sqrt(float(r[k]), Fraction(i[k]) ** 2 + Fraction(q[k]) ** 2)]
    assert wrong == []


def test_polar_roundtrip():
    rng = np.random.default_rng(1)
    i = rng.standard_normal(50_000)
    q = rng.standard_normal(50_000)
    r = rayleigh_raw(i, q)
    theta = phase_uniform(i, q).angles
    assert np.allclose(r * np.cos(theta), i, rtol=1e-9, atol=1e-12)
    assert np.allclose(r * np.sin(theta), q, rtol=1e-9, atol=1e-12)


def test_amplitude_is_rayleigh_for_ideal_gaussians():
    rng = np.random.default_rng(2)
    r = rayleigh_raw(rng.standard_normal(1_000_000), rng.standard_normal(1_000_000))
    # closed-form reference CDF 1 - exp(-r^2/2), sigma supplied
    assert ks_test(r, "rayleigh", params=(1.0,)).p_value > 0.01


def test_phase_axes():
    res = phase_uniform([1.0, 0.0], [0.0, 1.0])
    assert res.angles[0] == pytest.approx(0.0)
    assert res.angles[1] == pytest.approx(np.pi / 2)


def test_phase_range_and_uniformity():
    rng = np.random.default_rng(3)
    res = phase_uniform(rng.standard_normal(1_000_000), rng.standard_normal(1_000_000))
    assert res.angles.min() >= 0.0 and res.angles.max() < 2 * np.pi
    assert ks_test(res.angles, "uniform", params=(0.0, 2 * np.pi)).p_value > 0.01


def test_phase_degenerate_pairs_counted():
    res = phase_uniform([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    assert res.degenerate_pairs == 2
    assert res.angles.size == 1


def test_savgol_constant_reproduced():
    x = np.full(500, 3.25)
    assert np.allclose(savitzky_golay(x, 31, 3), x, rtol=1e-12, atol=0)


def test_savgol_polynomial_reproduction():
    t = np.arange(2000, dtype=float)
    for order, coeffs in ((2, (0.5, -2.0, 0.003)), (3, (1.0, 0.1, -0.002, 1e-6))):
        y = np.polynomial.polynomial.polyval(t, coeffs)
        out = savitzky_golay(y, 31, order)
        scale = np.max(np.abs(y)) or 1.0
        assert np.max(np.abs(out - y)) / scale < 1e-9


def test_savgol_linearity():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000)
    fa = savitzky_golay(a, 21, 3)
    fb = savitzky_golay(b, 21, 3)
    fab = savitzky_golay(a + b, 21, 3)
    assert np.allclose(fab, fa + fb, rtol=1e-10, atol=1e-10)


def test_savgol_smooths_noise():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 4 * np.pi, 8000)
    clean = np.sin(t)
    noisy = clean + 0.3 * rng.standard_normal(t.size)
    filtered = savitzky_golay(noisy, 31, 3)
    assert np.mean((filtered - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


def test_savgol_validation():
    with pytest.raises(ValueError):
        savitzky_golay(np.zeros(100), 30, 3)  # even window
    with pytest.raises(ValueError):
        savitzky_golay(np.zeros(100), 31, 31)  # order >= window
    with pytest.raises(ValueError):
        savitzky_golay(np.zeros(10), 31, 3)  # too short
    with pytest.raises(ValueError):
        savitzky_golay_coefficients(0, 0)


def _fresh_savgol(y: np.ndarray, window: int, order: int) -> np.ndarray:
    # reference: rebuild the weights and the edge projector on every call
    half = window // 2
    out = np.convolve(y, savitzky_golay_coefficients(window, order)[::-1], mode="same")
    design = np.vander(np.arange(window, dtype=np.float64), order + 1, increasing=True)
    projector = design @ np.linalg.pinv(design)
    out[:half] = (projector @ y[:window])[:half]
    if half:
        out[-half:] = (projector @ y[-window:])[-half:]
    return out


@pytest.mark.parametrize("window, order", [(1, 0), (5, 2), (21, 3), (31, 3), (71, 5)])
def test_savgol_cached_weights_equal_fresh_ones_bit_for_bit(window, order):
    rng = np.random.default_rng(window)
    kernel, projector = _savitzky_golay_weights(window, order)
    design = np.vander(np.arange(window, dtype=np.float64), order + 1, increasing=True)
    assert np.array_equal(kernel, savitzky_golay_coefficients(window, order)[::-1])
    assert np.array_equal(projector, design @ np.linalg.pinv(design))
    for _ in range(3):
        y = rng.standard_normal(int(rng.integers(window, 5000)))
        assert np.array_equal(savitzky_golay(y, window, order), _fresh_savgol(y, window, order))


def test_savgol_cached_weights_are_read_only():
    kernel, projector = _savitzky_golay_weights(31, 3)
    with pytest.raises(ValueError):
        kernel[0] = 0.0
    with pytest.raises(ValueError):
        projector[0, 0] = 0.0
    assert _savitzky_golay_weights(31, 3)[0] is kernel


def test_savgol_coefficients_sum_to_one():
    c = savitzky_golay_coefficients(31, 3)
    assert float(np.sum(c)) == pytest.approx(1.0, abs=1e-12)


def test_smooth_histogram_preserves_smooth_shapes():
    edges = np.linspace(0, 5, 101)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = 1e4 * centers * np.exp(-(centers**2) / 2)
    out = savitzky_golay(counts, 31, 3)
    assert np.max(np.abs(out - counts)) / counts.max() < 0.02
