import numpy as np
import pytest

from triqrng.source import (
    NoiseModel,
    WelchAccumulator,
    lo_power_sweep,
    normalized_taps,
    psd_estimate,
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


def test_psd_white_noise_flat():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0)
    x = simulate_quadratures(model, 1 << 19, prng_seed=11).i_samples
    psd = psd_estimate(x, 256)
    dens = psd[1:-1, 1]  # interior bins
    level = dens.mean()
    se = dens.std()
    assert np.all(np.abs(dens - level) < 5 * se + 1e-12)
    # expected density for unit variance white noise at fs=1 is 2 (one-sided)
    assert abs(level / 2.0 - 1.0) < 0.05


def test_psd_parseval():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.5, filter_taps=LOWPASS_8)
    x = simulate_quadratures(model, 1 << 20, prng_seed=12).i_samples
    psd = psd_estimate(x, 1024)
    df = psd[1, 0] - psd[0, 0]
    assert abs(float(np.sum(psd[:, 1]) * df) / np.var(x) - 1.0) < 0.02


def test_psd_matches_filter_response():
    # analytic oracle: PSD of filtered white noise is |H(f)|^2 * 2 (one-sided, fs=1)
    taps = np.array(LOWPASS_8)
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0, filter_taps=LOWPASS_8)
    seg = 64
    n = seg * 1400  # ~2800 averaged segments at 50% overlap
    x = simulate_quadratures(model, n, prng_seed=13).i_samples
    psd = psd_estimate(x, seg)
    freqs = psd[:, 0]
    h = np.abs(np.array([np.polyval(taps[::-1], np.exp(-2j * np.pi * f)) for f in freqs])) ** 2
    expected = 2.0 * h
    expected[0] /= 2.0  # DC and Nyquist carry no negative-frequency fold
    expected[-1] /= 2.0
    sel = expected > 0.05 * expected.max()  # avoid near-null relative blowup
    rel = np.abs(psd[sel, 1] - expected[sel]) / expected[sel]
    assert rel.max() < 0.10


def test_psd_sine_peak_lands_on_its_bin():
    seg = 512
    k = 37
    t = np.arange(seg * 64)
    x = np.sin(2 * np.pi * k / seg * t) + 0.01 * np.random.default_rng(0).standard_normal(t.size)
    psd = psd_estimate(x, seg)
    assert int(np.argmax(psd[:, 1])) == k


def test_psd_input_validation():
    with pytest.raises(ValueError):
        psd_estimate(np.zeros(100), 7)  # not a power of two
    with pytest.raises(ValueError):
        psd_estimate(np.zeros(100), 256)  # too few samples


def _naive_welch(x, seg: int, fs: float = 1.0) -> np.ndarray:
    # reference: one Hann-windowed segment every seg // 2 samples, in order
    win = np.hanning(seg)
    step = seg // 2
    nseg = (x.size - seg) // step + 1
    acc = np.zeros(seg // 2 + 1)
    for s in range(nseg):
        acc += np.abs(np.fft.rfft(x[s * step : s * step + seg] * win)) ** 2
    dens = acc / (nseg * np.sum(win**2) * fs)
    dens[1:-1] *= 2.0
    return np.column_stack([np.fft.rfftfreq(seg, d=1.0 / fs), dens])


def _random_splits(rng, n: int, max_parts: int) -> list[np.ndarray]:
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, max_parts)), replace=False))
    return np.split(np.arange(n), cuts)


def test_psd_estimate_equals_naive_welch_bit_for_bit():
    x = simulate_quadratures(NoiseModel(sigma_q2=1.0, sigma_e2=0.3, filter_taps=LOWPASS_8),
                             1 << 16, prng_seed=20).i_samples
    for seg, n, fs in ((256, 1 << 16, 1.0), (1024, 50_000, 2.0e9), (64, 64, 3.0), (8, 1001, 1.0)):
        assert np.array_equal(psd_estimate(x[:n], seg, fs), _naive_welch(x[:n], seg, fs))


def test_welch_accumulator_matches_naive_welch_for_any_batch_split():
    rng = np.random.default_rng(21)
    seg = 256
    x = simulate_quadratures(NoiseModel(sigma_q2=1.0, sigma_e2=0.3, filter_taps=LOWPASS_8),
                             20_000, prng_seed=21).i_samples * 3e-3
    for _ in range(20):
        welch = WelchAccumulator(seg, sample_rate_hz=2.0)
        for idx in _random_splits(rng, x.size, 60):
            welch.feed(x[idx])
        assert welch.n_samples == x.size and not welch.filled
        np.testing.assert_allclose(welch.psd(), _naive_welch(x, seg, 2.0), rtol=1e-12, atol=0)
        assert welch.variance() == pytest.approx(np.var(x), rel=1e-12)


def test_welch_accumulator_trailing_window():
    # the window keeps the fewest latest batches holding `window` samples;
    # segments stay aligned to the stream start and count in the window
    # when they end inside it
    rng = np.random.default_rng(22)
    seg, window = 128, 3000
    step = seg // 2
    x = simulate_quadratures(NoiseModel(sigma_q2=1.0, sigma_e2=0.3, filter_taps=LOWPASS_8),
                             12_000, prng_seed=22).i_samples
    for _ in range(10):
        welch = WelchAccumulator(seg, window)
        parts = _random_splits(rng, x.size, 40)
        starts = [int(p[0]) for p in parts]
        for k, idx in enumerate(parts):
            welch.feed(x[idx])
            end = int(idx[-1]) + 1
            if end < window:
                assert not welch.filled
                continue
            lo = max(starts[j] for j in range(k + 1) if end - starts[j] >= window)
            assert welch.filled and welch.n_samples == end - lo
            first = max(0, -(-(lo - seg + 1) // step) * step)
            np.testing.assert_allclose(welch.psd(), _naive_welch(x[first:end], seg), rtol=1e-12, atol=0)
            assert welch.variance() == pytest.approx(np.var(x[lo:end]), rel=1e-12)


def test_sample_rate_labels_frequency_axis():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.0)
    frame = simulate_quadratures(model, 1 << 15, prng_seed=15, sample_rate_hz=2.0e9)
    assert frame.sample_rate_hz == 2.0e9
    psd = psd_estimate(frame.i_samples, 512, frame.sample_rate_hz)
    assert psd[-1, 0] == pytest.approx(1.0e9)  # Nyquist
    # Parseval holds in physical units too
    df = psd[1, 0] - psd[0, 0]
    assert abs(float(np.sum(psd[:, 1]) * df) / np.var(frame.i_samples) - 1.0) < 0.02


def test_per_channel_excess_override():
    model = NoiseModel(sigma_q2=1.0, sigma_e2=0.1, sigma_e2_q=2.0)
    frame = simulate_quadratures(model, 400_000, prng_seed=14)
    assert np.var(frame.q_samples) > np.var(frame.i_samples) * 1.5


class _LoopWelch(WelchAccumulator):
    """Reference feed: one rfft per segment, added to the batch sum in order."""

    def feed(self, samples) -> None:
        x = np.asarray(samples, dtype=np.float64)
        if x.size == 0:
            return
        buf = np.concatenate([self._tail, x]) if self._tail.size else x
        length = self.segment_length
        step = length // 2
        nseg = (buf.size - length) // step + 1 if buf.size >= length else 0
        acc = np.zeros(length // 2 + 1)
        for s in range(nseg):
            acc += np.abs(np.fft.rfft(buf[s * step : s * step + length] * self._win)) ** 2
        self._tail = buf[nseg * step :].copy()
        self._batches.append((x.size, float(x.mean()), float(np.var(x)), acc, nseg))
        self.n_samples += x.size
        while self.filled and self.n_samples - self._batches[0][0] >= self.window_samples:
            self.n_samples -= self._batches.popleft()[0]


def _assert_same_windows(fast: WelchAccumulator, ref: WelchAccumulator) -> None:
    assert fast.n_samples == ref.n_samples and np.array_equal(fast._tail, ref._tail)
    assert len(fast._batches) == len(ref._batches)
    for a, b in zip(fast._batches, ref._batches):
        assert a[0] == b[0] and a[4] == b[4] and np.array_equal(a[3], b[3])
    assert np.array_equal(fast.psd(), ref.psd())


@pytest.mark.parametrize("seg, window, max_batch", [
    (8, None, 5),          # every batch shorter than a segment
    (64, 2000, 40),        # batches shorter and longer than a segment, trailing window
    (256, 5000, 3000),     # more than SEGMENTS_PER_FFT segments in one batch
])
def test_welch_batched_feed_equals_per_segment_loop_bit_for_bit(seg, window, max_batch):
    rng = np.random.default_rng(seg)
    x = simulate_quadratures(NoiseModel(sigma_q2=1.0, sigma_e2=0.3, filter_taps=LOWPASS_8),
                             12_000, prng_seed=seg).i_samples
    fast, ref = WelchAccumulator(seg, window), _LoopWelch(seg, window)
    pos = 0
    while pos < x.size:
        n = int(rng.integers(1, max_batch + 1))
        fast.feed(x[pos : pos + n])
        ref.feed(x[pos : pos + n])
        pos += n
    _assert_same_windows(fast, ref)


def test_welch_batched_feed_equals_per_segment_loop_on_a_startup_record():
    x = simulate_quadratures(NoiseModel(sigma_q2=1.0, sigma_e2=0.3, filter_taps=LOWPASS_8),
                             1 << 20, prng_seed=23).i_samples
    fast, ref = WelchAccumulator(4096, 1 << 20), _LoopWelch(4096, 1 << 20)
    fast.feed(x)
    ref.feed(x)
    _assert_same_windows(fast, ref)
