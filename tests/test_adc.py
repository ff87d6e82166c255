import numpy as np
import pytest
from scipy import special

import triqrng.adc
from triqrng.adc import MAX_DNL, AdcSpec, CodeBlock, _edges, dnl_profile, quantize_channel
from triqrng.source import QuadratureFrame
from triqrng.stats import chi2_sf


def test_spec_validation():
    with pytest.raises(ValueError):
        AdcSpec(bits=3)
    with pytest.raises(ValueError):
        AdcSpec(bits=25)
    with pytest.raises(ValueError):
        AdcSpec(range_v=0.0)
    with pytest.raises(ValueError):
        AdcSpec(dnl_max=-0.1)
    spec = AdcSpec(bits=16, range_v=0.128)
    assert spec.bin_width == pytest.approx(0.128 / 65536)


def test_dnl_ideal_profile_is_zero():
    assert np.all(dnl_profile(AdcSpec(bits=8, dnl_max=0.0)) == 0.0)


def test_dnl_bound_and_monotone_edges():
    spec = AdcSpec(bits=10, dnl_max=0.3, dnl_seed=5)
    off = dnl_profile(spec)
    assert np.max(np.abs(off)) <= 0.3 * spec.bin_width
    ideal = -spec.range_v / 2 + spec.bin_width * np.arange(1, 1 << spec.bits)
    edges = ideal + off
    assert np.all(np.diff(edges) > 0)


def test_dnl_rejects_bin_inversion_risk():
    with pytest.raises(ValueError):
        dnl_profile(AdcSpec(bits=8, dnl_max=0.5))


def test_dnl_deterministic():
    spec = AdcSpec(bits=12, dnl_max=0.2, dnl_seed=42)
    assert np.array_equal(dnl_profile(spec), dnl_profile(spec))
    other = AdcSpec(bits=12, dnl_max=0.2, dnl_seed=43)
    assert not np.array_equal(dnl_profile(spec), dnl_profile(other))


def test_zero_volts_maps_to_code_zero():
    spec = AdcSpec(bits=16, range_v=0.128, dnl_max=0.0)
    blk = quantize_channel(np.array([0.0]), spec)
    assert blk.codes[0] == 0


def test_overrange_clamps_to_extreme_codes():
    spec = AdcSpec(bits=8, range_v=1.0, dnl_max=0.0)
    blk = quantize_channel(np.array([1.0, -1.0]), spec)
    assert blk.codes[0] == spec.code_max
    assert blk.codes[1] == spec.code_min
    assert blk.clamped == 2


def _with_neighbours(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


@pytest.mark.parametrize("bits,range_v", [(4, 1.0), (10, 2.0), (16, 0.128)])
@pytest.mark.parametrize("dnl_max", [0.0, 0.1, 0.45])
def test_quantize_matches_searchsorted_oracle(bits, range_v, dnl_max):
    # oracle: the code is the number of (DNL-perturbed) edges <= v
    spec = AdcSpec(bits=bits, range_v=range_v, dnl_max=dnl_max, dnl_seed=bits)
    edges = _edges(spec)
    half = range_v / 2
    ideal = -half + spec.bin_width * np.arange(1, 1 << bits)
    rng = np.random.default_rng(bits)
    v = np.concatenate([
        _with_neighbours(edges),
        _with_neighbours(ideal),
        _with_neighbours(np.array([-half, half, 0.0])),
        [-2 * half, 2 * half, -1e300, 1e300, -np.inf, np.inf],
        rng.uniform(-1.05 * half, 1.05 * half, 1 << 20),
    ])
    blk = quantize_channel(v, spec)
    expected = np.searchsorted(edges, v, side="right") - (1 << (bits - 1))
    assert np.array_equal(blk.codes, expected)
    assert blk.codes.dtype == np.int16
    assert blk.clamped == int(np.count_nonzero(v < -half) + np.count_nonzero(v >= half))


@pytest.mark.parametrize("dnl_max", [MAX_DNL, np.nextafter(MAX_DNL, 1.0)])
def test_quantize_matches_the_oracle_on_both_sides_of_the_one_step_bound(dnl_max):
    # the deepest ADC at the widest DNL bound: the guess's rounding error is
    # largest there and its room, 1/2 - dnl_max bin, smallest; no wider bound loads
    if dnl_max > MAX_DNL:
        with pytest.raises(ValueError, match="dnl_max"):
            AdcSpec(bits=16, range_v=0.128, dnl_max=dnl_max, dnl_seed=9)
        return
    spec = AdcSpec(bits=16, range_v=0.128, dnl_max=dnl_max, dnl_seed=9)
    edges = _edges(spec)
    v = np.concatenate([_with_neighbours(edges), np.random.default_rng(9).uniform(-0.065, 0.065, 1 << 18)])
    expected = np.searchsorted(edges, v, side="right") - (1 << 15)
    assert np.array_equal(quantize_channel(v, spec).codes, expected)


def test_quantize_chunk_size_changes_nothing(monkeypatch):
    # a DNL record that clamps at both ends, 3 * 8192 + 7 samples so every
    # chunk size but 1 ends on a partial chunk
    spec = AdcSpec(bits=10, range_v=2.0, dnl_max=0.3, dnl_seed=5)
    v = np.random.default_rng(5).uniform(-1.2, 1.2, 3 * 8192 + 7)
    results = []
    for chunk in (1, 7, 8192, 1 << 16):
        monkeypatch.setattr(triqrng.adc, "QUANTIZE_CHUNK", chunk)
        blk = quantize_channel(v, spec)
        results.append((blk.codes, blk.clamped))
        with pytest.raises(ValueError, match="NaN"):
            quantize_channel(np.append(v, np.nan), spec)  # NaN in the last chunk
    codes, clamped = results[0]
    assert clamped == int(np.count_nonzero(v < -1.0) + np.count_nonzero(v >= 1.0))
    assert codes.min() == spec.code_min and codes.max() == spec.code_max
    for other_codes, other_clamped in results[1:]:
        assert np.array_equal(other_codes, codes) and other_clamped == clamped


def test_quantize_rejects_nan():
    spec = AdcSpec(bits=16, range_v=0.128)
    with pytest.raises(ValueError, match="NaN"):
        quantize_channel(np.array([0.0, np.nan, 0.01]), spec)


def test_quantize_both_channels():
    spec = AdcSpec(bits=8, range_v=1.0)
    frame = QuadratureFrame(np.array([0.1, -0.1]), np.array([0.2, -0.2]))
    ci, cq = quantize_channel(frame.i_samples, spec), quantize_channel(frame.q_samples, spec)
    assert len(ci) == len(cq) == 2


def test_monotonicity():
    spec = AdcSpec(bits=10, range_v=2.0, dnl_max=0.3, dnl_seed=7)
    v = np.sort(np.random.default_rng(0).uniform(-1.2, 1.2, 5000))
    codes = quantize_channel(v, spec).codes
    assert np.all(np.diff(codes) >= 0)


def test_realized_bin_widths_bounded():
    spec = AdcSpec(bits=10, range_v=2.0, dnl_max=0.25, dnl_seed=3)
    ideal = -spec.range_v / 2 + spec.bin_width * np.arange(1, 1 << spec.bits)
    edges = ideal + dnl_profile(spec)
    widths = np.diff(edges)
    assert widths.min() >= spec.bin_width * (1 - 2 * spec.dnl_max) - 1e-15
    assert widths.max() <= spec.bin_width * (1 + 2 * spec.dnl_max) + 1e-15


def test_dequantize_roundtrip_within_one_bin():
    spec = AdcSpec(bits=12, range_v=2.0, dnl_max=0.3, dnl_seed=11)
    v = np.random.default_rng(1).uniform(-0.99, 0.99, 20_000)
    back = (quantize_channel(v, spec).codes + 0.5) * spec.bin_width  # each code's ideal bin centre
    assert np.max(np.abs(back - v)) < spec.bin_width


def test_gaussian_histogram_matches_analytic_binning():
    # oracle: integrate the Gaussian over the exact bin edges (ndtr differences)
    spec = AdcSpec(bits=16, range_v=0.128, dnl_max=0.0)
    sigma = spec.range_v / 8
    n = 1_000_000
    v = np.random.default_rng(0).standard_normal(n) * sigma
    blk = quantize_channel(v, spec)
    assert blk.clamped / len(blk) < 1e-4

    # merge codes into wider cells so expected counts are solid
    cell = 64  # codes per histogram cell
    lo_code, hi_code = -2048, 2048
    obs, _ = np.histogram(blk.codes, bins=np.arange(lo_code, hi_code + cell, cell))
    cell_edges_v = -spec.range_v / 2 + (np.arange(lo_code, hi_code + cell, cell) + (1 << 15)) * spec.bin_width
    cdf = special.ndtr(cell_edges_v / sigma)
    expected = n * np.diff(cdf)
    keep = expected >= 5
    stat = float(np.sum((obs[keep] - expected[keep]) ** 2 / expected[keep]))
    p = chi2_sf(stat, int(keep.sum()) - 1)
    assert p > 0.01


def test_codeblock_range_validation():
    spec = AdcSpec(bits=8, range_v=1.0)
    from triqrng.adc import CodeBlock

    with pytest.raises(ValueError):
        CodeBlock(codes=np.array([300]), spec=spec)


def test_code_files_hold_at_most_16_bits():
    # no spec deeper than the int16 code files exists
    with pytest.raises(ValueError, match="bits must be in \\[4, 16\\]"):
        AdcSpec(bits=17)


def test_code_file_round_trip_16_bits(tmp_path):
    spec = AdcSpec(bits=16)
    path = str(tmp_path / "codes.i16")
    codes = np.array([spec.code_min, -1, 0, 1, 12345, spec.code_max])
    CodeBlock(codes=codes, spec=spec).tofile(path)
    back = CodeBlock.fromfile(path, spec)
    assert back.spec == spec
    assert np.array_equal(back.codes, codes) and back.codes.dtype == np.int16


def test_code_file_rejects_a_partial_code(tmp_path):
    # 5 bytes: two whole codes and one byte of a third
    path = tmp_path / "odd.i16"
    path.write_bytes(b"\x01\x00\x02\x00\x03")
    with pytest.raises(ValueError, match="5 bytes is not a whole number of int16 codes") as err:
        CodeBlock.fromfile(str(path), AdcSpec(bits=16))
    assert str(path) in str(err.value)


def test_code_file_rejects_codes_beyond_the_spec(tmp_path):
    path = str(tmp_path / "codes.i16")
    np.array([0, 4000], dtype="<i2").tofile(path)
    with pytest.raises(ValueError, match="12 bits"):
        CodeBlock.fromfile(path, AdcSpec(bits=12))
