import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import triqrng.source
from triqrng.config import PRESET_TAPS, ConfigError, PipelineConfig, load_config, write_config
from triqrng.source import (
    FACTOR_TOL,
    NoiseModel,
    lo_power_sweep,
    model_lags,
    normalized_taps,
    simulate_channels,
    simulate_quadratures,
    spectral_factor,
)
from triqrng.stats import ks_test

LOWPASS_8 = normalized_taps([1.0, 0.9, 0.75, 0.55, 0.35, 0.2, 0.1, 0.05])


def _two_draw_channel(rng: np.random.Generator, model: NoiseModel, count: int, excess_var: float) -> np.ndarray:
    """Oracle of the law: white quantum noise through the taps plus a second,
    independent draw of white excess noise."""
    taps = np.asarray(model.filter_taps, dtype=float)
    quantum = rng.standard_normal(count + taps.size - 1) * np.sqrt(model.sigma_q2)
    return np.convolve(quantum, taps, mode="valid") + rng.standard_normal(count) * np.sqrt(excess_var)


def _sample_lags(x: np.ndarray, max_lag: int) -> np.ndarray:
    return np.array([np.dot(x[:x.size - k], x[k:]) / x.size for k in range(max_lag + 1)])


def _lag_standard_errors(gamma: np.ndarray, n: int, max_lag: int) -> np.ndarray:
    """Bartlett's large-sample SE of a zero-mean Gaussian process's lag
    estimates: Var = (1/n) sum_m (gamma_m^2 + gamma_(m+k) gamma_(m-k))."""
    q = gamma.size - 1
    pad = max_lag + q
    full = np.zeros(2 * pad + 1)  # full[pad + m] = gamma_|m|
    full[pad - q:pad + q + 1] = np.concatenate([gamma[:0:-1], gamma])
    m = np.arange(-q, q + 1)
    return np.array([np.sqrt(np.sum(full[pad + m] ** 2 + full[pad + m + k] * full[pad + m - k]) / n)
                     for k in range(max_lag + 1)])


@pytest.mark.parametrize("taps", [PRESET_TAPS, LOWPASS_8], ids=["preset", "lowpass-8"])
def test_one_draw_lags_match_the_two_draw_law(taps):
    # both constructions are zero-mean stationary Gaussian processes; on a
    # 2^20-sample record each one's lags 0..q+1 sit within 5 standard
    # errors of the model's, so the one-draw source has the oracle's law
    n = 1 << 20
    model = NoiseModel(sigma_q2=5.3e-6, sigma_e2=3.3e-6, filter_taps=taps, sigma_e2_q=1.1e-6)
    q = len(taps) - 1
    frame = simulate_quadratures(model, n, prng_seed=21)
    rng = np.random.default_rng(22)
    for one_draw, excess in ((frame.i_samples, model.sigma_e2), (frame.q_samples, model.sigma_e2_q)):
        gamma = model_lags(taps, model.sigma_q2, excess)
        expected = np.append(gamma, 0.0)  # lag q+1 is zero
        se = _lag_standard_errors(gamma, n, q + 1)
        for x in (one_draw, _two_draw_channel(rng, model, n, excess)):
            assert np.all(np.abs(_sample_lags(x, q + 1) - expected) < 5 * se)


_VARIANCE = st.one_of(st.just(0.0), st.floats(1e-9, 1e-3))


@settings(max_examples=150, deadline=None)
@given(
    raw_taps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16).filter(lambda t: any(abs(v) > 1e-3 for v in t)),
    sigma_q2=_VARIANCE,
    sigma_e2=_VARIANCE,
    sigma_e2_q=st.one_of(st.none(), _VARIANCE),
)
def test_spectral_factor_reproduces_the_model_lags(raw_taps, sigma_q2, sigma_e2, sigma_e2_q):
    taps = normalized_taps(raw_taps)
    model = NoiseModel(sigma_q2=sigma_q2, sigma_e2=sigma_e2, filter_taps=taps, sigma_e2_q=sigma_e2_q)
    excess_q = sigma_e2 if sigma_e2_q is None else sigma_e2_q
    for b, excess in zip(model.factors(), (sigma_e2, excess_q)):
        assert b is spectral_factor(taps, sigma_q2, excess)
        gamma = model_lags(taps, sigma_q2, excess)
        lags = np.zeros(gamma.size)
        lags[:b.size] = np.correlate(b, b, "full")[b.size - 1:]
        assert np.max(np.abs(lags - gamma)) <= FACTOR_TOL * gamma[0]
        if sigma_q2 == 0:
            assert b.size == 1  # the LO-off background is white
        elif excess > 0 and b.size > 1:
            assert np.all(np.abs(np.roots(b)) < 1)  # minimum phase


def test_spectral_factor_special_cases():
    taps = normalized_taps([1.0, 0.97, 0.40])
    assert np.array_equal(spectral_factor(taps, 4.0, 0.0), 2.0 * np.asarray(taps))
    assert np.array_equal(spectral_factor(taps, 0.0, 9.0), [3.0])
    with pytest.raises(ValueError):
        spectral_factor(taps, 4.0, 1.0)[0] = 0.0  # shared through the cache, so read-only


def test_an_unverifiable_factor_is_refused_at_load(tmp_path, monkeypatch):
    write_config(PipelineConfig(filter_taps=normalized_taps([1.0, 0.5, 0.25, 0.125])), str(tmp_path / "t.ini"))
    spectral_factor.cache_clear()
    monkeypatch.setattr(triqrng.source, "FACTOR_ITERATIONS", 1)  # stops short of converging
    try:
        with pytest.raises(ConfigError, match=r"\[source\] filter_taps"):
            load_config(str(tmp_path / "t.ini"))
    finally:
        spectral_factor.cache_clear()


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


def test_channels_simulated_one_at_a_time_are_the_frame():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.25, filter_taps=LOWPASS_8, sigma_e2_q=0.5)
    frame = simulate_quadratures(model, 10_000, prng_seed=99)
    channels = simulate_channels(model, 10_000, prng_seed=99)
    assert np.array_equal(next(channels), frame.i_samples)  # the Q record is not made yet
    assert np.array_equal(next(channels), frame.q_samples)
    assert next(channels, None) is None


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


def test_lo_sweep_zero_power_has_no_quantum_component():
    model = NoiseModel(sigma_q2=0.5, sigma_e2=0.2, filter_taps=(1.0,))
    ((p, total, excess),) = lo_power_sweep(model, 0.5, [0.0], 100_000, prng_seed=6)
    assert p == 0.0
    assert abs(total - excess) < 0.02 * excess + 1e-12


def test_lo_sweep_linearity_ratio():
    model = NoiseModel(sigma_q2=0.7, sigma_e2=0.0, filter_taps=(1.0,))
    rows = lo_power_sweep(model, 0.7, [1.0, 2.0, 4.0], 400_000, prng_seed=7)
    v1, v2, v4 = (total - excess for _, total, excess in rows)
    assert abs(v2 / v1 - 2.0) < 0.05
    assert abs(v4 / v1 - 4.0) < 0.1


def test_lo_sweep_linear_fit_r():
    model = NoiseModel(sigma_q2=1.3e-6 * 4.13, sigma_e2=3.3e-6, filter_taps=(1.0,))
    powers = np.linspace(0.0, 4.13, 10)
    rows = lo_power_sweep(model, 1.3e-6, powers, 200_000, prng_seed=8)
    y = np.array([total - excess for _, total, excess in rows])
    r = np.corrcoef(powers, y)[0, 1]
    assert r >= 0.99


def test_lo_sweep_rejects_negative_power():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0, filter_taps=(1.0,))
    with pytest.raises(ValueError):
        lo_power_sweep(model, 1.0, [-1.0], 1000, prng_seed=9)
    with pytest.raises(ValueError):
        lo_power_sweep(model, 1.0, [], 1000, prng_seed=9)


def test_saturation_soft_clip_bends_the_sweep():
    resp, sat = 1.0, 2.0
    base = NoiseModel(sigma_q2=resp, sigma_e2=0.0, filter_taps=(1.0,))
    clipped = NoiseModel(sigma_q2=resp, sigma_e2=0.0, filter_taps=(1.0,), sat_clip_v=sat)
    rows_lin = lo_power_sweep(base, resp, [8.0], 200_000, prng_seed=10)
    rows_sat = lo_power_sweep(clipped, resp, [8.0], 200_000, prng_seed=10)
    # far beyond the clip level the measured variance must fall below linear
    assert rows_sat[0][1] < 0.8 * rows_lin[0][1]


def test_per_channel_excess_override():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.1, sigma_e2_q=2.0)
    frame = simulate_quadratures(model, 400_000, prng_seed=14)
    assert np.var(frame.q_samples) > np.var(frame.i_samples) * 1.5
