import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqrng.adc import AdcSpec, CodeBlock
from triqrng.entropy import EntropyReport
from triqrng.gaussian import (
    HADAMARD,
    bit_reversal_permutation,
    grid_step,
    mix_pools,
    msb_truncate,
    output_precision,
    precision_from_report,
    requantize,
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
    assert output_precision(11) == 14


def test_precision_rule_is_capped_at_the_wire_width():
    # 13 input bits make 13 + 4 - 1 = 16-bit outputs, the int16 wire width
    assert precision_from_report(dummy_report(0.75, bits=20)) == 13
    assert precision_from_report(dummy_report(1.0, bits=24)) == 13
    assert precision_from_report(dummy_report(0.75, bits=16)) == 12


def _transpose_pass(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    # reference: transform each group of k, copy the transpose, restore energy
    k = m.shape[0]
    mixed = np.ascontiguousarray((values.reshape(-1, k) @ m.T).T).reshape(-1)
    return mixed * np.sqrt(float(np.sum(values**2)) / float(np.sum(mixed**2)))


def _bit_reversed(pool_size: int) -> list[int]:
    # reference: bit reversal index by index, through the binary string
    bits = pool_size.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(pool_size)]


def _oracle_pools(truncated: np.ndarray, pool_size: int, passes: int) -> list[np.ndarray]:
    # reference in floats: gather each whole pool by per-index bit reversal,
    # scale it to unit mean square, then apply `passes` transpose passes of
    # the orthonormal HADAMARD / 2, restoring the energy after each
    perm = _bit_reversed(pool_size)
    pools = []
    for p in range(truncated.size // pool_size):
        v = truncated[p * pool_size:(p + 1) * pool_size].astype(np.float64)[perm]
        v = v / np.sqrt(np.mean(v**2))
        for _ in range(passes):
            v = _transpose_pass(v, HADAMARD / 2)
        pools.append(v)
    return pools


def _butterfly_sums(pool: np.ndarray, passes: int) -> np.ndarray:
    # reference in integers: each pass of the +-1 Hadamard as int64
    # butterflies, no BLAS; output j of every group is row j of the next pool
    v = pool.astype(np.int64)
    for _ in range(passes):
        a, b, c, d = v.reshape(-1, 4).T
        s0, d0, s1, d1 = a + b, a - b, c + d, c - d
        v = np.concatenate([s0 + s1, d0 + d1, s0 - s1, d0 - d1])
    return v


def _codes(seed: int, count: int, scale: float = 512.0) -> np.ndarray:
    return np.round(np.random.default_rng(seed).standard_normal(count) * scale).astype(np.int64)


def test_normalize_constant_pool():
    # a constant pool of 2s has rms 2; one pass maps each group to
    # (8, 0, 0, 0), lists output j of every group in row j, and the scale
    # 1 / (2 * 2) makes the 8s into 2s
    out = mix_pools(np.full(8, 2, dtype=np.int64), 8, 1, 14)
    assert np.array_equal(out, requantize(np.array([2.0, 2.0, 0, 0, 0, 0, 0, 0]), 14))


def test_normalize_unit_pool_unchanged():
    # (1, -1, 1, -1) has unit mean square; gathered in bit-reversed order it
    # is (1, 1, -1, -1), which the Hadamard maps to (0, 0, 4, 0), scaled by 1/2
    out = mix_pools(np.array([1, -1, 1, -1]), 4, 1, 14)
    assert np.array_equal(out, requantize(np.array([0.0, 0.0, 2.0, 0.0]), 14))


def test_normalize_random_pool_mean_square_one():
    values = mix_pools(_codes(0, 4096, scale=3.7 * 512), 4096, 1, 16) * grid_step(16)
    assert abs(np.mean(values**2) - 1.0) <= 1e-5


def test_normalize_rejects_zero_pool():
    truncated = np.concatenate([np.arange(1, 5), np.zeros(4, dtype=np.int64)])
    with pytest.raises(ValueError, match="all-zero pool"):
        mix_pools(truncated, 4, 1, 14)


def test_matrix_orthogonality_enforced():
    assert np.array_equal(HADAMARD.T @ HADAMARD, 4 * np.eye(4))
    assert np.array_equal(HADAMARD, np.round(HADAMARD))
    assert not HADAMARD.flags.writeable


def test_wallace_pass_conserves_energy():
    # the passes are exact integer sums: the int64 butterflies keep the pool
    # energy exactly (times 4 per pass), and on a 60-bit grid, finer than one
    # ulp of the scaled values, mix_pools gives the codes of those sums
    truncated = _codes(2, 1 << 12)
    pool = truncated[_bit_reversed(1 << 12)]
    energy = int(pool @ pool)
    for passes in (1, 3, 6):
        sums = _butterfly_sums(pool, passes)
        assert int(sums @ sums) == 4**passes * energy
        scale = 1.0 / (2**passes * np.sqrt(energy / pool.size))
        assert np.array_equal(mix_pools(truncated, 1 << 12, passes, 60), requantize(sums * scale, 60))


def test_mix_pools_refuses_sums_beyond_exact_floats():
    # every partial sum is at most max|code| * 4^passes, which may reach 2^53
    edge = np.array([1 << 29, 0, 0, 0])
    assert mix_pools(edge, 4, 12, 14).size == 4
    with pytest.raises(ValueError, match="exact-integer range"):
        mix_pools(edge + 1, 4, 12, 14)
    # the pool energy is an int64 sum of squares
    with pytest.raises(ValueError, match="exact-integer range"):
        mix_pools(np.array([1 << 31, 0, 0, 0]), 4, 1, 14)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mix_pools_matches_the_float_oracle(data):
    pool_size = 1 << data.draw(st.integers(2, 12), label="log2 pool_size")
    passes = data.draw(st.integers(1, 8), label="passes")
    m_bits = data.draw(st.integers(1, 13), label="m_bits")
    lo, hi = -(1 << (m_bits - 1)), (1 << (m_bits - 1)) - 1
    kind = data.draw(st.sampled_from(["drawn", "full-scale", "single-nonzero"]), label="kind")
    if kind == "full-scale":
        truncated = np.full(pool_size, lo, dtype=np.int64)
    elif kind == "single-nonzero":
        truncated = np.zeros(pool_size, dtype=np.int64)
        truncated[data.draw(st.integers(0, pool_size - 1))] = data.draw(st.integers(lo, hi).filter(bool))
    else:
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        truncated = np.random.default_rng(seed).integers(lo, hi + 1, pool_size)
        if not truncated.any():
            truncated[0] = lo
    n_out = output_precision(m_bits)
    expected = requantize(_oracle_pools(truncated, pool_size, passes)[0], n_out)
    assert np.array_equal(mix_pools(truncated, pool_size, passes, n_out), expected)


@pytest.mark.parametrize("pool_size", [4, 8, 64, 2048, 65536])
def test_mix_pools_matches_the_transpose_oracle(pool_size):
    for passes in range(1, 7):
        m_bits = 5 + (passes + pool_size.bit_length()) % 9  # 5- to 13-bit inputs
        n_out = output_precision(m_bits)
        half = 1 << (m_bits - 1)
        whole = 1 if pool_size == 65536 else 3
        truncated = np.clip(_codes(pool_size + passes, whole * pool_size + pool_size // 2, half / 4),
                            -half, half - 1)
        pools = _oracle_pools(truncated, pool_size, passes)
        out = mix_pools(truncated, pool_size, passes, n_out)
        assert np.array_equal(out, np.concatenate([requantize(v, n_out) for v in pools]))


def test_wallace_pass_second_moment_stays_one():
    truncated = _codes(3, 1 << 14)
    for passes in range(1, 7):
        values = mix_pools(truncated, 1 << 14, passes, 16) * grid_step(16)
        assert abs(np.mean(values**2) - 1.0) <= 1e-5


def test_wallace_pass_validation():
    # a pool is a power of two holding at least one group of 4
    for pool_size in (2, 12):
        with pytest.raises(ValueError, match="power of two"):
            mix_pools(np.arange(1, 25), pool_size, 1, 14)


def test_gaussianity_survives_passes():
    truncated = _codes(5, 1 << 16)
    for passes in range(1, 6):
        probe = mix_pools(truncated, 1 << 16, passes, 14) * grid_step(14)
        assert ks_test(probe, "gaussian").p_value > 0.01


def test_avalanche_mixing():
    # negating the largest code preserves the pool energy, so every output
    # change is due to mixing, not the scale
    base = _codes(6, 4096)
    flipped = base.copy()
    j = int(np.argmax(np.abs(flipped)))
    flipped[j] = -flipped[j]
    passes = int(np.ceil(np.log(4096) / np.log(4)))
    changed = np.mean(mix_pools(base, 4096, passes, 14) != mix_pools(flipped, 4096, passes, 14))
    assert changed >= 0.5


def test_determinism():
    truncated = _codes(7, 1 << 12)
    assert np.array_equal(mix_pools(truncated, 1 << 12, 1, 14), mix_pools(truncated, 1 << 12, 1, 14))


def test_bit_reversal_permutation():
    perm = bit_reversal_permutation(8)
    assert list(perm) == [0, 4, 2, 6, 1, 5, 3, 7]
    assert not perm.flags.writeable
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
    n_out = output_precision(m_bits)
    assert (m_bits, n_out) == (11, 14)
    codes_i = mix_pools(msb_truncate(codeblock(raw.astype(np.int64)), m_bits), 65536, 5, n_out)
    codes_q = mix_pools(msb_truncate(codeblock(raw[::-1].astype(np.int64)), m_bits), 65536, 4, n_out)
    assert codes_i.size == codes_q.size == 3 * 65536
    probe = codes_i[:100_000] * grid_step(n_out)
    assert ks_test(probe, "gaussian").p_value > 0.01
    assert chi2_test(probe, "gaussian", n_bins=64).p_value > 0.01


def test_gaussian_extract_rejects_zero_passes():
    truncated = msb_truncate(codeblock(np.arange(-32768, 32768, dtype=np.int64)), 11)
    with pytest.raises(ValueError):
        mix_pools(truncated, 65536, 0, 14)
