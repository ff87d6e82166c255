import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from triqrng.config import ConfigError, PipelineConfig, load_config, write_config
from triqrng.source import normalized_taps


def test_roundtrip(tmp_path):
    path = str(tmp_path / "cfg.ini")
    cfg = PipelineConfig()
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_roundtrip_with_overrides(tmp_path):
    path = str(tmp_path / "cfg.ini")
    cfg = PipelineConfig(block_n=768, block_m=512, prng_seed=123, adc_dnl_max=0.2,
                         listen="0.0.0.0:8443", recertify_every=100)
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[extraction]\nblock_n = 768\nblock_m = 512\n")
    cfg = load_config(str(path))
    assert cfg.block_n == 768
    assert cfg.block_m == 512
    assert cfg.adc_bits == 16  # default preserved


def test_validation():
    with pytest.raises(ValueError):
        PipelineConfig(block_n=1024, block_m=1536)
    with pytest.raises(ValueError):
        PipelineConfig(block_n=1000)  # not a multiple of adc bits
    with pytest.raises(ValueError):
        PipelineConfig(pool_size=65537)
    with pytest.raises(ValueError):
        PipelineConfig(epsilon=1.5)


@pytest.mark.parametrize("field, value", [
    ("sg_window", 30), ("sg_window", -1), ("sg_order", 31), ("sg_order", -1),
    ("passes_i", 0), ("passes_q", 0), ("recertify_every", 0),
    ("certify_samples", 16), ("certify_samples", 0), ("prediction_order", -1),
    ("prediction_order", 1 << 20), ("epsilon", 0.0), ("block_m", 2048),
    ("max_request_bytes", 8 * 1024 * 1024 + 1), ("max_request_bytes", 0),
    ("gate_alpha", 5.0), ("gate_alpha", 0.0), ("gate_alpha", 1.0),
    ("sigma_e2", math.nan), ("adc_range_v", math.nan), ("lo_power_mw", math.nan),
    ("request_timeout_s", math.nan), ("gate_alpha", math.nan), ("responsivity", math.inf),
    ("filter_taps", (1.0, math.nan)), ("lo_power_mw", -1.0), ("responsivity", -1.0),
])
def test_values_that_fail_later_are_rejected_at_load(field, value):
    # left to run, each of these fails or misbehaves only inside the
    # pipeline: at the first Rayleigh batch (killing a service producer),
    # as unmixed Gaussian output, by recertifying on every call, at
    # Pipeline start (a NaN float fails certification or quantization, a
    # window of at most prediction_order samples has no lags to predict
    # from), as a request larger than the buffer or
    # smaller than a byte that can never be served, or as a gate that
    # discards every chunk (alpha >= 1) or none (alpha 0)
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("field", ["passes_i", "passes_q"])
def test_passes_beyond_exact_pool_sums_are_rejected(field):
    # 2^12 * 4^20 <= 2^53: 20 passes keep the sums of 13-bit stage-1 codes
    # exact in float64, 21 do not
    assert getattr(PipelineConfig(**{field: 20}), field) == 20
    with pytest.raises(ConfigError, match=rf"\[extraction\] {field}"):
        PipelineConfig(**{field: 21})


def test_sg_window_longer_than_one_block_is_rejected():
    # a 1-block Rayleigh batch holds block_n // adc_bits = 96 samples; a
    # longer window was skipped and left the amplitudes unsmoothed
    assert PipelineConfig(sg_window=95).sg_window == 95
    with pytest.raises(ConfigError, match=r"\[extraction\] sg_window"):
        PipelineConfig(sg_window=97)
    assert PipelineConfig(block_n=3072, sg_window=101).sg_window == 101


def test_pipeline_and_service_limits_are_inclusive():
    PipelineConfig(certify_samples=5, prediction_order=4, buffer_bytes=1 << 20, max_request_bytes=1 << 20)
    PipelineConfig(prediction_order=0)


def test_block_sizes_must_be_whole_bytes():
    # the uniform path hashes packed rows, so both block sizes are byte multiples
    with pytest.raises(ValueError, match="multiples of 8"):
        PipelineConfig(block_n=1500, adc_bits=12)  # 125 whole 12-bit codes
    with pytest.raises(ValueError, match="multiples of 8"):
        PipelineConfig(block_m=1020)
    PipelineConfig(block_n=1536, adc_bits=12, block_m=1016)


def test_preset_taps_are_normalized():
    cfg = PipelineConfig()
    total = sum(t * t for t in cfg.filter_taps)
    assert abs(total - 1.0) < 1e-9
    cfg.noise_model()  # must validate cleanly
    cfg.adc_spec()


def _finite(lo: float, hi: float, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def configs(draw) -> PipelineConfig:
    bits = draw(st.integers(4, 16))
    block_n = math.lcm(8, bits) * draw(st.integers(1, 8))  # whole codes and whole bytes
    sg_window = 2 * draw(st.integers(0, min(40, (block_n // bits - 1) // 2))) + 1  # at most one block
    buffer_bytes = draw(st.integers(1, 1 << 30))
    certify_samples = draw(st.integers(1, 1 << 24))
    host = draw(st.sampled_from(["127.0.0.1", "0.0.0.0", "localhost", "::1"]))
    taps = draw(st.lists(_finite(-10, 10), min_size=1, max_size=6).filter(lambda t: max(map(abs, t)) > 1e-3))
    values = {
        "sigma_e2": draw(_finite(0, 1)),
        "filter_taps": normalized_taps(taps),
        "lo_power_mw": draw(_finite(0, 1e3)),
        "responsivity": draw(_finite(0, 1e3)),
        "prng_seed": draw(st.integers(0, 2**64)),  # above 2^53 a float loses the seed
        "adc_bits": bits,
        "adc_range_v": draw(_finite(1e-6, 10)),
        "adc_dnl_max": draw(_finite(0, 0.45)),
        "adc_dnl_seed": draw(st.integers(0, 2**32)),
        "block_n": block_n,
        "block_m": 8 * draw(st.integers(1, block_n // 8)),
        "epsilon": draw(_finite(0, 1, exclude_min=True, exclude_max=True)),
        "pool_size": 1 << draw(st.integers(2, 24)),
        "passes_i": draw(st.integers(1, 12)),
        "passes_q": draw(st.integers(1, 12)),
        "sg_window": sg_window,
        "sg_order": draw(st.integers(0, sg_window - 1)),
        "gof_samples": draw(st.integers(1, 1 << 24)),
        "listen": f"{host}:{draw(st.integers(0, 65535))}",
        "max_request_bytes": draw(st.integers(1, buffer_bytes)),
        "buffer_bytes": buffer_bytes,
        "request_timeout_s": draw(_finite(1e-3, 1e4)),
        "gate_alpha": draw(_finite(0, 1, exclude_min=True, exclude_max=True)),
        "recertify_every": draw(st.integers(1, 1 << 40)),
        "certify_samples": certify_samples,
        "prediction_order": draw(st.integers(0, certify_samples - 1)),
    }
    assert set(values) == {f.name for f in fields(PipelineConfig)}  # every field, so a new one is covered
    return PipelineConfig(**values)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=configs())
def test_every_field_round_trips_through_the_file(tmp_path, cfg):
    path = str(tmp_path / "cfg.ini")
    write_config(cfg, path)
    assert load_config(path) == cfg


def _default_ini(tmp_path) -> str:
    path = tmp_path / "default.ini"
    write_config(PipelineConfig(), str(path))
    return path.read_text()


@pytest.mark.parametrize("edit, key", [
    pytest.param(lambda t: t + "\n[sources]\nprng_seed = 7\n", "sources", id="unknown-section"),
    pytest.param(lambda t: t.replace("block_n = ", "blok_n = "), "blok_n", id="misspelt-key"),
    pytest.param(lambda t: t.replace("[adc]\n", "[adc]\nblock_m = 1024\n"), "block_m", id="key-in-wrong-section"),
    pytest.param(lambda t: t.replace("prng_seed = 7", "prng_seed = 7.9"), "prng_seed", id="fractional-int"),
    pytest.param(lambda t: t.replace("buffer_bytes = 8388608", "buffer_bytes = 1e7"), "buffer_bytes",
                 id="int-as-float-literal"),
    pytest.param(lambda t: t.replace("filter_taps = ", "filter_taps = 1.0, "), "filter_taps", id="non-unit-taps"),
    pytest.param(lambda t: t.replace("filter_taps = ", "filter_taps = nan, "), "filter_taps", id="nan-tap"),
    pytest.param(lambda t: t.replace("range_v = 0.128", "range_v = nan"), "range_v", id="nan-float"),
    pytest.param(lambda t: t.replace("lo_power_mw = 4.13", "lo_power_mw = inf"), "lo_power_mw", id="inf-float"),
    pytest.param(lambda t: t.replace("sigma_e2 = ", "sigma_e2 = 1.0, "), "sigma_e2", id="list-for-a-float"),
    pytest.param(lambda t: t.replace("dnl_max = 0.1", "dnl_max = 0.5"), "dnl_max", id="dnl-can-invert-bins"),
    pytest.param(lambda t: t.replace("pool_size = 65536", "pool_size = 65540"), "pool_size", id="pool-not-power-of-two"),
    pytest.param(lambda t: t.replace("[source]\n", "[source]\nsigma_q2 = 5.3e-06\n"), "sigma_q2",
                 id="derived-sigma-q2"),
    pytest.param(lambda t: t.replace("[pipeline]\n", "[pipeline]\npsd_segment = 4096\n"), "psd_segment",
                 id="removed-psd-segment"),
    pytest.param(lambda t: t.replace("[source]\n", "[source]\nsample_rate_hz = 2e9\n"), "sample_rate_hz",
                 id="removed-sample-rate"),
    pytest.param(lambda t: "[DEFAULT]\nblock_n = 768\n" + t, "DEFAULT", id="default-section"),
    pytest.param(lambda t: "block_n = 768\n" + t, "no section headers", id="not-ini"),
])
def test_a_bad_file_is_refused_when_it_is_loaded(tmp_path, edit, key):
    text = _default_ini(tmp_path)
    path = tmp_path / "bad.ini"
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(ValueError, match=key):
        load_config(str(path))


@pytest.mark.parametrize("kind", [list, np.array])
def test_taps_built_in_code_are_stored_as_floats_and_round_trip(tmp_path, kind):
    # taps given as a list or an array take the one form a file gives back
    taps = normalized_taps([1.0, 0.97, 0.40])
    cfg = PipelineConfig(filter_taps=kind(taps))
    assert cfg.filter_taps == taps and all(type(t) is float for t in cfg.filter_taps)
    path = str(tmp_path / "cfg.ini")
    write_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("kind", [list, np.array])
def test_a_nan_tap_is_refused_as_not_finite_whatever_the_sequence(kind):
    with pytest.raises(ConfigError, match="filter_taps must be finite"):
        PipelineConfig(filter_taps=kind([1.0, math.nan]))


def test_sigma_q2_is_responsivity_times_lo_power():
    cfg = PipelineConfig(lo_power_mw=2.0, responsivity=3.0)
    assert cfg.noise_model().sigma_q2 == 6.0
    assert PipelineConfig().noise_model().sigma_q2 == 5.324327e-06


@pytest.mark.parametrize("key, widest, refused", [
    pytest.param("bits", "16", "17", id="deeper-than-int16"),
    pytest.param("dnl_max", "0.45", "0.46", id="dnl-past-the-one-step-bound"),
])
def test_the_adc_range_ends_where_every_stage_is_exact(tmp_path, key, widest, refused):
    text = _default_ini(tmp_path)
    (line,) = [line for line in text.splitlines() if line.startswith(f"{key} = ")]
    path = tmp_path / "adc.ini"
    path.write_text(text.replace(line, f"{key} = {widest}"))
    assert str(getattr(load_config(str(path)), "adc_" + key)) == widest
    path.write_text(text.replace(line, f"{key} = {refused}"))
    with pytest.raises(ConfigError, match=rf"^\[adc\] {key} must be in "):
        load_config(str(path))
