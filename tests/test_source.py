import numpy as np
import pytest

from triqrng.source import (
    NoiseModel,
    lo_power_sweep,
    normalized_taps,
    simulate_quadratures,
)
from triqrng.stats import ks_test

LOWPASS_8 = normalized_taps([1.0, 0.9, 0.75, 0.55, 0.35, 0.2, 0.1, 0.05])


def test_pure_quantum_variance():
    model = NoiseModel(sigma_q2=2.5, sigma_e2=0.0)
    frame = simulate_quadratures(model, 1_000_000, prng_seed=1)
    for ch in (frame.i_samples, frame.q_samples):
        assert abs(np.var(ch) / 2.5 - 1.0) < 0.01


def test_independent_variances_add():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=1.0)
    frame = simulate_quadratures(model, 1_000_000, prng_seed=2)
    assert abs(np.var(frame.i_samples) / 2.0 - 1.0) < 0.01


def test_filtered_lag1_autocorrelation_matches_taps():
    # analytic oracle: for unit-energy taps h, lag-1 autocorrelation of
    # filtered white noise is sum_k h[k] h[k+1]
    taps = np.array(LOWPASS_8)
    expected = float(np.sum(taps[:-1] * taps[1:]))
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0, filter_taps=LOWPASS_8)
    n = 1_000_000
    x = simulate_quadratures(model, n, prng_seed=3).i_samples
    x = x - x.mean()
    rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    # estimator std of an autocorrelation estimate is ~ 1/sqrt(n)
    assert abs(rho1 - expected) < 3.0 / np.sqrt(n) * 2.0


def test_channels_independent():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.5, filter_taps=LOWPASS_8)
    n = 1_000_000
    frame = simulate_quadratures(model, n, prng_seed=4)
    i = frame.i_samples - frame.i_samples.mean()
    q = frame.q_samples - frame.q_samples.mean()
    rho = float(np.dot(i, q) / np.sqrt(np.dot(i, i) * np.dot(q, q)))
    assert abs(rho) < 4.0 / np.sqrt(n)


def test_seed_reproducibility_bit_identical():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.25, filter_taps=LOWPASS_8)
    a = simulate_quadratures(model, 10_000, prng_seed=99)
    b = simulate_quadratures(model, 10_000, prng_seed=99)
    assert np.array_equal(a.i_samples, b.i_samples)
    assert np.array_equal(a.q_samples, b.q_samples)
    c = simulate_quadratures(model, 10_000, prng_seed=100)
    assert not np.array_equal(a.i_samples, c.i_samples)


def test_gaussian_deviates_pass_ks():
    # generator quality gate: ziggurat deviates vs Gaussian at alpha=0.01
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0)
    x = simulate_quadratures(model, 1_000_000, prng_seed=5).i_samples
    assert ks_test(x, "gaussian", params=(0.0, 1.0)).p_value >= 0.01


def test_input_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma_q2=-1.0, sigma_e2=0.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma_q2=1.0, sigma_e2=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(sigma_q2=1.0, sigma_e2=0.0, filter_taps=(0.5, 0.5))  # not unit energy
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0)
    with pytest.raises(ValueError):
        simulate_quadratures(model, 0, prng_seed=1)
    with pytest.raises(ValueError):
        NoiseModel(sigma_q2=2.0, sigma_e2=0.0, lo_power_mw=1.0, responsivity=1.0)


def test_lo_sweep_zero_power_has_no_quantum_component():
    model = NoiseModel.at_lo_power(1.0, responsivity=0.5, sigma_e2=0.2, filter_taps=(1.0,))
    ((p, total, excess),) = lo_power_sweep(model, [0.0], 100_000, prng_seed=6)
    assert p == 0.0
    assert abs(total - excess) < 0.02 * excess + 1e-12


def test_lo_sweep_linearity_ratio():
    model = NoiseModel.at_lo_power(1.0, responsivity=0.7, sigma_e2=0.0, filter_taps=(1.0,))
    rows = lo_power_sweep(model, [1.0, 2.0, 4.0], 400_000, prng_seed=7)
    v1, v2, v4 = (total - excess for _, total, excess in rows)
    assert abs(v2 / v1 - 2.0) < 0.05
    assert abs(v4 / v1 - 4.0) < 0.1


def test_lo_sweep_linear_fit_r():
    model = NoiseModel.at_lo_power(4.13, responsivity=1.3e-6, sigma_e2=3.3e-6, filter_taps=(1.0,))
    powers = np.linspace(0.0, 4.13, 10)
    rows = lo_power_sweep(model, powers, 200_000, prng_seed=8)
    y = np.array([total - excess for _, total, excess in rows])
    r = np.corrcoef(powers, y)[0, 1]
    assert r >= 0.99


def test_lo_sweep_rejects_negative_power():
    model = NoiseModel.at_lo_power(1.0, responsivity=1.0, sigma_e2=0.0, filter_taps=(1.0,))
    with pytest.raises(ValueError):
        lo_power_sweep(model, [-1.0], 1000, prng_seed=9)
    with pytest.raises(ValueError):
        lo_power_sweep(model, [], 1000, prng_seed=9)


def test_saturation_soft_clip_bends_the_sweep():
    resp, sat = 1.0, 2.0
    base = NoiseModel.at_lo_power(1.0, responsivity=resp, sigma_e2=0.0, filter_taps=(1.0,))
    clipped = NoiseModel.at_lo_power(
        1.0, responsivity=resp, sigma_e2=0.0, filter_taps=(1.0,), sat_clip_v=sat
    )
    rows_lin = lo_power_sweep(base, [8.0], 200_000, prng_seed=10)
    rows_sat = lo_power_sweep(clipped, [8.0], 200_000, prng_seed=10)
    # far beyond the clip level the measured variance must fall below linear
    assert rows_sat[0][1] < 0.8 * rows_lin[0][1]


def test_per_channel_excess_override():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.1, sigma_e2_q=2.0)
    frame = simulate_quadratures(model, 400_000, prng_seed=14)
    assert np.var(frame.q_samples) > np.var(frame.i_samples) * 1.5
