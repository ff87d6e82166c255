import pytest

from triqrng.config import PipelineConfig, default_config, load_config, write_config


def test_roundtrip(tmp_path):
    path = str(tmp_path / "cfg.ini")
    cfg = default_config()
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
    ("psd_segment", 1000), ("psd_segment", 4), ("certify_samples", 2048),
    ("prediction_order", 2049), ("max_request_bytes", 8 * 1024 * 1024 + 1),
])
def test_values_that_fail_later_are_rejected_at_load(field, value):
    # left to run, each of these fails or misbehaves only inside the
    # pipeline: at the first Rayleigh batch (killing a service producer),
    # as unmixed Gaussian output, by recertifying on every call, at
    # Pipeline start or in conditional_variance, or as a request larger
    # than the buffer that can never be served
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_pipeline_and_service_limits_are_inclusive():
    PipelineConfig(psd_segment=8, certify_samples=8, prediction_order=4,
                   buffer_bytes=1 << 20, max_request_bytes=1 << 20)


def test_block_sizes_must_be_whole_bytes():
    # the uniform path hashes packed rows, so both block sizes are byte multiples
    with pytest.raises(ValueError, match="multiples of 8"):
        PipelineConfig(block_n=1500, adc_bits=12)  # 125 whole 12-bit codes
    with pytest.raises(ValueError, match="multiples of 8"):
        PipelineConfig(block_m=1020)
    PipelineConfig(block_n=1536, adc_bits=12, block_m=1016)


def test_matrix_roundtrip(tmp_path):
    path = str(tmp_path / "m.ini")
    ident = tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4))
    cfg = PipelineConfig(matrix=ident, output_grid_sigma=4.0)
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded.matrix == ident
    assert loaded.output_grid_sigma == 4.0
    # default (no inline matrix) round-trips as None
    path2 = str(tmp_path / "m2.ini")
    write_config(default_config(), path2)
    assert load_config(path2).matrix is None


def test_preset_taps_are_normalized():
    cfg = default_config()
    total = sum(t * t for t in cfg.filter_taps)
    assert abs(total - 1.0) < 1e-9
    cfg.noise_model()  # must validate cleanly
    cfg.adc_spec()
