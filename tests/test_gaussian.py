import numpy as np
import pytest

from triqrng.adc import AdcSpec, CodeBlock
from triqrng.entropy import EntropyReport
from triqrng.gaussian import (
    GaussianPool,
    RecursiveMatrix,
    bit_reversal_permutation,
    grid_step,
    mix_pools,
    msb_truncate,
    normalize_pool,
    output_precision,
    precision_from_report,
    requantize,
    scaled_hadamard,
    wallace_pass,
)
from triqrng.stats import chi2_test, ks_test

SPEC16 = AdcSpec(bits=16, range_v=0.128)


def codeblock(values, spec=SPEC16):
    return CodeBlock(codes=np.asarray(values), spec=spec)


def dummy_report(h_per_bit: float, bits: int = 16) -> EntropyReport:
    return EntropyReport(
        channel="i",
        h_min_per_sample=h_per_bit * bits,
        h_min_per_bit=h_per_bit,
        g_star=0.0223,
        n_eff=1.2,
        sigma_m2=8.6e-6,
        sigma_qc2=2.5e-6,
        epsilon=2.0**-32,
        extractable_fraction=0.63,
        adc_bits=bits,
        dnl_max=0.1,
        prediction_order=16,
        psd_segment=4096,
        n_samples=1 << 20,
    )


def test_msb_truncate_identity_at_full_width():
    blk = codeblock([123, -456, 32767, -32768])
    assert np.array_equal(msb_truncate(blk, 16), blk.codes)


def test_msb_truncate_golden():
    blk = codeblock([0x7FFF])
    assert msb_truncate(blk, 11)[0] == 0x03FF


def test_msb_truncate_sign_preserving():
    blk = codeblock([-32768, -1, 1])
    out = msb_truncate(blk, 11)
    assert list(out) == [-1024, -1, 0]  # arithmetic shift by 5


def test_msb_truncate_range_check():
    blk = codeblock([0])
    with pytest.raises(ValueError):
        msb_truncate(blk, 0)
    with pytest.raises(ValueError):
        msb_truncate(blk, 17)


def test_precision_rule_reproduces_11_bits():
    assert precision_from_report(dummy_report(0.70)) == 11
    assert precision_from_report(dummy_report(0.71)) == 11
    assert output_precision(11, 4) == 14


def test_precision_rule_is_capped_at_the_wire_width():
    # 13 input bits make 13 + 4 - 1 = 16-bit outputs, the int16 wire width
    assert precision_from_report(dummy_report(0.75, bits=20)) == 13
    assert precision_from_report(dummy_report(1.0, bits=24)) == 13
    assert precision_from_report(dummy_report(0.75, bits=16)) == 12


def test_normalize_constant_pool():
    pool = normalize_pool([2.0, 2.0, 2.0, 2.0])
    assert np.allclose(pool.values, 1.0, atol=1e-15)


def test_normalize_unit_pool_unchanged():
    pool = normalize_pool([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(pool.values, [1.0, -1.0, 1.0, -1.0])


def test_normalize_random_pool_mean_square_one():
    rng = np.random.default_rng(0)
    pool = normalize_pool(rng.standard_normal(4096) * 3.7)
    assert abs(np.mean(pool.values**2) - 1.0) <= 1e-12


def test_normalize_rejects_zero_pool():
    with pytest.raises(ValueError):
        normalize_pool([0.0, 0.0, 0.0, 0.0])


def test_matrix_orthogonality_enforced():
    with pytest.raises(ValueError):
        RecursiveMatrix(np.array([[1.0, 0.0], [0.5, 1.0]]))
    h = scaled_hadamard(4)
    assert np.allclose(h.T @ h, np.eye(4), atol=1e-15)
    RecursiveMatrix(h)


def test_wallace_pass_identity_matrix_permutes_only():
    rng = np.random.default_rng(1)
    pool = normalize_pool(rng.standard_normal(64), k=4)
    out = wallace_pass(pool, RecursiveMatrix(np.eye(4)))
    assert sorted(out.values) == pytest.approx(sorted(pool.values), rel=1e-12)
    assert out.pass_count == 1


def test_wallace_pass_conserves_energy():
    rng = np.random.default_rng(2)
    pool = normalize_pool(rng.standard_normal(1 << 12), k=4)
    mat = RecursiveMatrix(scaled_hadamard(4))
    ss0 = float(np.sum(pool.values**2))
    # raw transform drift stays tiny (orthogonality)...
    raw = pool.values.reshape(-1, 4) @ mat.entries.T
    assert abs(np.sum(raw**2) / ss0 - 1.0) < 1e-9
    # ...and the pass restores it exactly within 1e-12
    out = wallace_pass(pool, mat)
    assert abs(np.sum(out.values**2) / ss0 - 1.0) <= 1e-12


def _transpose_pass(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    # reference: transform each group of k, copy the transpose, restore energy
    k = m.shape[0]
    mixed = np.ascontiguousarray((values.reshape(-1, k) @ m.T).T).reshape(-1)
    return mixed * np.sqrt(float(np.sum(values**2)) / float(np.sum(mixed**2)))


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("kind", ["hadamard", "random-orthogonal"])
def test_wallace_pass_equals_transpose_form_bit_for_bit(k, kind):
    rng = np.random.default_rng(100 + k)
    m = scaled_hadamard(k) if kind == "hadamard" else np.linalg.qr(rng.standard_normal((k, k)))[0]
    mat = RecursiveMatrix(m)
    for _ in range(5):
        pool = normalize_pool(rng.standard_normal(1 << 16), k=k)
        ref = pool.values
        for _ in range(3):
            pool = wallace_pass(pool, mat)
            ref = _transpose_pass(ref, m)
            assert np.array_equal(pool.values, ref)


def test_wallace_pass_second_moment_stays_one():
    rng = np.random.default_rng(3)
    pool = normalize_pool(rng.standard_normal(1 << 14), k=4)
    mat = RecursiveMatrix(scaled_hadamard(4))
    for _ in range(6):
        pool = wallace_pass(pool, mat)
        assert abs(np.mean(pool.values**2) - 1.0) <= 1e-12


def test_wallace_pass_validation():
    rng = np.random.default_rng(4)
    pool = normalize_pool(rng.standard_normal(64), k=4)
    with pytest.raises(ValueError):
        wallace_pass(pool, RecursiveMatrix(np.eye(8)))
    with pytest.raises(ValueError):
        GaussianPool(values=rng.standard_normal(63), k=4)


def test_gaussianity_survives_passes():
    rng = np.random.default_rng(5)
    pool = normalize_pool(rng.standard_normal(1 << 16), k=4)
    mat = RecursiveMatrix(scaled_hadamard(4))
    for _ in range(5):
        pool = wallace_pass(pool, mat)
        assert ks_test(pool.values, "gaussian").p_value > 0.01


def test_avalanche_mixing():
    # sign-flip of the largest entry preserves the pool energy, so every
    # output change is due to mixing, not the energy correction
    rng = np.random.default_rng(6)
    base = normalize_pool(rng.standard_normal(4096), k=4)
    flipped_values = base.values.copy()
    j = int(np.argmax(np.abs(flipped_values)))
    flipped_values[j] = -flipped_values[j]
    flipped = GaussianPool(values=flipped_values, k=4)
    mat = RecursiveMatrix(scaled_hadamard(4))
    a, b = base, flipped
    passes = int(np.ceil(np.log(4096) / np.log(4)))
    for _ in range(passes):
        a = wallace_pass(a, mat)
        b = wallace_pass(b, mat)
    scale = np.sqrt(np.mean(a.values**2))
    changed = np.mean(np.abs(a.values - b.values) > 1e-9 * scale)
    assert changed >= 0.5


def test_determinism():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(1 << 12)
    mat = RecursiveMatrix(scaled_hadamard(4))
    out1 = wallace_pass(normalize_pool(vals), mat).values
    out2 = wallace_pass(normalize_pool(vals), mat).values
    assert np.array_equal(out1, out2)


def test_bit_reversal_permutation():
    perm = bit_reversal_permutation(8)
    assert list(perm) == [0, 4, 2, 6, 1, 5, 3, 7]
    with pytest.raises(ValueError):
        bit_reversal_permutation(12)


def test_requantize_range_and_entropy_bound():
    rng = np.random.default_rng(8)
    codes = requantize(rng.standard_normal(200_000), n_out=14)
    assert codes.min() >= -(1 << 13) and codes.max() <= (1 << 13) - 1
    assert np.unique(codes).size <= 1 << 14


def test_gaussian_extract_end_to_end():
    rng = np.random.default_rng(9)
    sigma_code = 1500.0
    raw = np.clip(np.round(rng.standard_normal(3 * 65536) * sigma_code), -32768, 32767)
    m_bits = precision_from_report(dummy_report(0.70))
    n_out = output_precision(m_bits, 4)
    assert (m_bits, n_out) == (11, 14)
    perm = bit_reversal_permutation(65536)
    matrix = RecursiveMatrix(scaled_hadamard(4))
    codes_i = mix_pools(msb_truncate(codeblock(raw.astype(np.int64)), m_bits), perm, matrix, 5, n_out)
    codes_q = mix_pools(msb_truncate(codeblock(raw[::-1].astype(np.int64)), m_bits), perm, matrix, 4, n_out)
    assert codes_i.size == codes_q.size == 3 * 65536
    probe = codes_i[:100_000] * grid_step(n_out)
    assert ks_test(probe, "gaussian").p_value > 0.01
    assert chi2_test(probe, "gaussian", n_bins=64).p_value > 0.01


def test_gaussian_extract_rejects_zero_passes():
    truncated = msb_truncate(codeblock(np.arange(-32768, 32768, dtype=np.int64)), 11)
    with pytest.raises(ValueError):
        mix_pools(truncated, bit_reversal_permutation(65536), RecursiveMatrix(scaled_hadamard(4)), 0, 14)
