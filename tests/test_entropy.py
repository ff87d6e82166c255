import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from triqrng.adc import AdcSpec
from triqrng.entropy import (
    LagWindow,
    conditional_variance,
    effective_photon_number,
    extractable_length,
    min_entropy_iid,
    min_entropy_nonlinear,
    solve_g_star,
)


def bisect_oracle(dx, r, iters=200):
    """Independent plain bisection, fixed iteration count."""
    lo, hi = 1e-14 * r, 1e14 * r
    f = lambda g: special.erf(dx / (2 * g)) - special.erfc(r / g)
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def residual(dx, r, g):
    erf_term = special.erf(dx / (2 * g))
    return abs(erf_term - special.erfc(r / g)) / erf_term


def test_g_star_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        solve_g_star(0.064, 0.064)
    with pytest.raises(ValueError):
        solve_g_star(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_g_star(1.0, 0.5)


def test_g_star_residual_and_oracle_agreement():
    dx, r = 2e-6, 0.064
    g = solve_g_star(dx, r)
    assert residual(dx, r, g) <= 1e-12
    assert abs(g - bisect_oracle(dx, r)) / g < 1e-9


def test_g_star_scale_invariance():
    g1 = solve_g_star(2e-6, 0.064)
    g10 = solve_g_star(2e-5, 0.64)
    assert abs(g10 / g1 - 10.0) < 1e-9


# g* of every ADC width at the preset's 128 mV range, as float.hex: the
# bisection's exact result, so a change to its bracket or steps shows here
G_STAR_PRESET_RANGE = {
    4: "0x1.af44b749fe0fep-5",
    5: "0x1.78b74847166b5p-5",
    6: "0x1.5050fde074890p-5",
    7: "0x1.31401624fb708p-5",
    8: "0x1.189ccb3f74156p-5",
    9: "0x1.04926c494d41ep-5",
    10: "0x1.e7da9f6fc54f0p-6",
    11: "0x1.cbb815ca8257dp-6",
    12: "0x1.b396f83ebc5f4p-6",
    13: "0x1.9ea2c1e51e72dp-6",
    14: "0x1.8c3e3c6ae2d14p-6",
    15: "0x1.7bf2a359e969fp-6",
    16: "0x1.6d6490efd11d3p-6",
    17: "0x1.604c869b77e95p-6",
    18: "0x1.5471c5a8bbc3cp-6",
    19: "0x1.49a6ad4caaf4ap-6",
    20: "0x1.3fc61ea07f336p-6",
    21: "0x1.36b1947ce3930p-6",
    22: "0x1.2e4fb931e7542p-6",
    23: "0x1.268b55d43ac8cp-6",
    24: "0x1.1f52824ddeedep-6",
}


def test_g_star_pinned_for_every_adc_width():
    # widths past the 16 an AdcSpec accepts stay pinned as solver cases
    for bits, pinned in G_STAR_PRESET_RANGE.items():
        assert solve_g_star(0.128 / 2**bits, 0.064).hex() == pinned, bits


def test_g_star_six_decade_sweep():
    for r_exp in (-3, -1, 1, 3):
        r = 10.0**r_exp
        for ratio_exp in range(2, 8):
            dx = r / 10.0**ratio_exp
            g = solve_g_star(dx, r)
            assert residual(dx, r, g) <= 1e-12, (dx, r)


def test_min_entropy_iid_vacuum_prefactor():
    dx, r = 2e-6, 0.064
    g = solve_g_star(dx, r)
    expected = -math.log2(special.erf(dx / (2 * g)))
    assert min_entropy_iid(0.0, dx, r) == pytest.approx(expected, rel=1e-12)


def test_min_entropy_iid_monotone_in_photons():
    dx, r = 2e-6, 0.064
    hs = [min_entropy_iid(n, dx, r) for n in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_nonlinear_reduces_to_iid_at_zero_dnl():
    spec = AdcSpec(bits=16, range_v=0.128, dnl_max=0.0)
    for n in (0.0, 0.7, 2.3):
        h_nl = min_entropy_nonlinear(n, spec)
        h_iid = min_entropy_iid(n, spec.bin_width, spec.range_v / 2)
        assert abs(h_nl - h_iid) <= 1e-12


def test_nonlinear_strictly_smaller_with_dnl():
    base = AdcSpec(bits=16, range_v=0.128, dnl_max=0.0)
    bent = AdcSpec(bits=16, range_v=0.128, dnl_max=0.3)
    assert min_entropy_nonlinear(1.0, bent) < min_entropy_nonlinear(1.0, base)


def test_entropy_monotone_in_dnl_and_bin_width():
    specs = [AdcSpec(bits=16, range_v=0.128, dnl_max=d) for d in (0.0, 0.1, 0.2, 0.4)]
    hs = [min_entropy_nonlinear(1.0, s) for s in specs]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    # coarser bins (fewer bits at fixed range) reveal less
    hs_bits = [min_entropy_nonlinear(1.0, AdcSpec(bits=b, range_v=0.128)) for b in (16, 14, 12, 10)]
    assert all(a > b for a, b in zip(hs_bits, hs_bits[1:]))


def test_effective_photon_number_values():
    assert effective_photon_number(1.0, 1.0) == pytest.approx(0.0)
    assert effective_photon_number(3.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        effective_photon_number(0.5, 1.0)
    with pytest.raises(ValueError):
        effective_photon_number(1.0, 0.0)


def record_lags(x, order: int = 16) -> np.ndarray:
    """Autocovariance lags 0..order of one record, fed as one batch."""
    window = LagWindow(order, x.size)
    window.feed(x)
    return window.autocovariance()


def ar1(a: float, n: int, seed: int) -> np.ndarray:
    w = np.random.default_rng(seed).standard_normal(n)
    x = np.empty_like(w)
    x[0] = w[0]
    for i in range(1, w.size):
        x[i] = a * x[i - 1] + w[i]
    return x


def test_conditional_variance_white_noise_is_total_variance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 19)
    cv = conditional_variance(record_lags(x), order=16)
    assert abs(cv / np.var(x) - 1.0) < 0.01


def test_conditional_variance_order_zero_is_total_variance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1 << 18) * 1.7
    assert conditional_variance(record_lags(x), order=0) == pytest.approx(np.var(x), rel=1e-12)


def test_conditional_variance_ar1_closed_form():
    # AR(1) innovation variance: sigma^2 (total variance sigma^2 / (1 - a^2))
    a, s2 = 0.6, 1.0
    exact = s2 * a ** np.arange(17) / (1 - a * a)
    lags = record_lags(ar1(a, 1 << 20, seed=2))
    for order in (1, 4, 16):
        assert conditional_variance(exact, order=order) == pytest.approx(s2, rel=1e-12)
        assert abs(conditional_variance(lags, order=order) / s2 - 1.0) < 0.01, order


def test_conditional_variance_non_increasing_in_order():
    lags = record_lags(ar1(0.8, 1 << 19, seed=3))
    cvs = [conditional_variance(lags, order=p) for p in (0, 1, 2, 8, 16)]
    total = cvs[0]
    assert all(cv <= total * (1 + 1e-9) for cv in cvs)
    assert all(a2 <= a1 * (1 + 1e-9) for a1, a2 in zip(cvs, cvs[1:]))


def test_conditional_variance_rejects_degenerate_spectrum():
    # lags that are not positive definite belong to no spectrum >= 0
    for lags, order in (([1.0, 1.5], 1), ([1.0, 1.0], 1), ([0.0, 0.0], 1), ([-1.0], 0),
                        ([1.0, 0.9, 0.0], 2)):
        with pytest.raises(ValueError):
            conditional_variance(np.array(lags), order=order)
    with pytest.raises(ValueError):
        conditional_variance(np.ones(4), order=4)  # fewer lags than the order needs


def _naive_window_lags(stream: list[int], sizes: list[int], order: int, window: int):
    """Exact lag sums of the trailing window, from Python ints over the whole stream."""
    keep = len(sizes) - 1
    while keep > 0 and sum(sizes[keep:]) < window:
        keep -= 1
    start, end = sum(sizes[:keep]), len(stream)
    n = end - start
    total = sum(stream[start:end])
    lags = [sum(stream[t] * stream[t - k] for t in range(max(start, k), end)) for k in range(order + 1)]
    return n, np.array([float(v) / n - (float(total) / n) ** 2 for v in lags])


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 90), min_size=1, max_size=12), bits=st.integers(4, 16),
       order=st.integers(0, 20), window=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@example(sizes=[5, 3, 4], bits=16, order=2, window=7, seed=0)  # the last two batches hold exactly 7
def test_lag_window_equals_the_naive_window_for_any_batch_split(sizes, bits, order, window, seed):
    # batches as short as one sample, so the carried tail spans several
    half = 1 << (bits - 1)
    stream = np.random.default_rng(seed).integers(-half, half, size=sum(sizes)).tolist()
    lag_window = LagWindow(order, window)
    offset = 0
    for size in sizes:
        lag_window.feed(np.array(stream[offset:offset + size], dtype=np.int16))
        offset += size
    n, expect = _naive_window_lags(stream, sizes, order, window)
    assert lag_window.n_samples == n
    if n <= order:
        with pytest.raises(ValueError, match="prediction_order"):
            lag_window.autocovariance()
        return
    assert np.array_equal(lag_window.autocovariance(), expect)


def test_lag_window_on_a_startup_record_equals_the_naive_sums_bit_for_bit():
    # 2^18 full-scale 16-bit codes in uneven batches: every partial sum is an exact integer
    rng = np.random.default_rng(4)
    codes = rng.integers(-(1 << 15), 1 << 15, size=1 << 18)
    window = LagWindow(16, 1 << 18)
    for part in np.split(codes, [5, 9000, 9003, 100_000, 200_000]):
        window.feed(part.astype(np.int16))
    x = [int(v) for v in codes]
    lags = [sum(a * b for a, b in zip(x[k:], x)) for k in range(17)]
    n, total = len(x), sum(x)
    assert np.array_equal(window.autocovariance(), np.array([v / n - (total / n) ** 2 for v in lags]))


def test_extractable_length_penalty_free_epsilon():
    # epsilon = 1/sqrt(2) makes log2(1/(2 eps^2)) vanish
    assert extractable_length(1000, 0.5, 1 / math.sqrt(2)) == 500


def test_extractable_length_paper_geometry():
    # floor(1536 * 0.73 - log2(2^63)) = floor(1121.28 - 63) = 1058
    assert extractable_length(1536, 0.73, 2.0**-32) == 1058


def test_extractable_length_clamps_at_zero():
    assert extractable_length(10, 0.1, 2.0**-32) == 0


def test_extractable_length_monotonicity():
    eps = 2.0**-32
    assert extractable_length(2000, 0.7, eps) >= extractable_length(1000, 0.7, eps)
    assert extractable_length(1000, 0.8, eps) >= extractable_length(1000, 0.7, eps)
    assert extractable_length(1000, 0.7, 2.0**-16) >= extractable_length(1000, 0.7, 2.0**-40)


def test_extractable_length_validation():
    with pytest.raises(ValueError):
        extractable_length(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        extractable_length(10, 1.5, 0.5)
    with pytest.raises(ValueError):
        extractable_length(10, 0.5, 1.0)
