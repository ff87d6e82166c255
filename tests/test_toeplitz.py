import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqrng.adc import quantize_channel
from triqrng.bits import BitBlock, codes_to_bits
from triqrng.config import PipelineConfig
from triqrng.pipeline import provision_seed
from triqrng.source import simulate_quadratures
from triqrng.toeplitz import (
    ToeplitzExtractor,
    ToeplitzSeed,
    dodis_extract,
    is_admissible,
    next_admissible,
    seed_chain,
    toeplitz_extract,
)


def bits(s: str) -> BitBlock:
    return BitBlock.from_bits(np.array([int(c) for c in s], dtype=np.uint8))


def make_seed(n: int, m: int, rng) -> ToeplitzSeed:
    return ToeplitzSeed(BitBlock.from_bits(rng.integers(0, 2, n - 1).astype(np.uint8)), n, m)


def test_golden_vector_hand_multiplied():
    # n=4, m=2, seed s = 101 (s0..s2); the matrix is (I_2 | T) with
    # T[i][j] = s[3 + i - j] for the tail columns j = 2, 3:
    #   row 0: 1 0 | s1 s0 = 1 0 | 0 1
    #   row 1: 0 1 | s2 s1 = 0 1 | 1 0
    # input x = 1101: head 11, T * tail(01) = 10, out = 11 ^ 10 = 01
    seed = ToeplitzSeed(bits("101"), n=4, m=2)
    out = toeplitz_extract(bits("1101"), seed, 2)
    assert list(out.bits()) == [0, 1]
    packed = ToeplitzExtractor(seed).extract_batch(np.packbits(bits("1101").bits()[None, :], axis=1))
    assert np.unpackbits(packed, axis=1, count=2).tolist() == [[0, 1]]


def test_zero_input_gives_zero_output():
    rng = np.random.default_rng(0)
    seed = make_seed(32, 16, rng)
    out = toeplitz_extract(bits("0" * 32), seed, 16)
    assert not np.any(out.bits())


def test_length_mismatch_rejected():
    rng = np.random.default_rng(1)
    seed = make_seed(8, 4, rng)
    with pytest.raises(ValueError):
        toeplitz_extract(bits("1" * 7), seed, 4)
    with pytest.raises(ValueError):
        toeplitz_extract(bits("1" * 8), seed, 5)


def all_inputs(n: int) -> np.ndarray:
    """Every n-bit input, MSB first, one per row."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def extract_bits(seed: ToeplitzSeed, xs: np.ndarray) -> np.ndarray:
    """Run the packed batch path on (B, n) 0/1 rows; return (B, m) 0/1 rows."""
    out = ToeplitzExtractor(seed).extract_batch(np.packbits(xs, axis=1))
    return np.unpackbits(out, axis=1, count=seed.m)


def test_fast_matches_naive_exhaustive_small():
    # every m from 1 to n, so odd widths, a byte holding both head and tail
    # bits, and m == n (T is empty and the output is the head)
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        xs = all_inputs(n)
        for m in range(1, n + 1):
            seed = make_seed(n, m, rng)
            batch = extract_bits(seed, xs)
            for x, out in zip(xs, batch):
                assert np.array_equal(out, toeplitz_extract(BitBlock.from_bits(x), seed, m).bits())
            if m == n:
                assert np.array_equal(batch, xs)


@pytest.mark.parametrize("n, m", [(4, 1), (5, 2), (6, 3), (7, 7), (8, 3), (9, 4), (10, 8)])
def test_every_pair_collides_on_at_most_a_2_pow_minus_m_share_of_seeds(n, m):
    # universal_2, checked exhaustively: each pair x != x' has equal outputs
    # under at most a 2^-m share of all 2^(n-1) seeds (none when m == n)
    packed = np.packbits(all_inputs(n), axis=1)
    collisions = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for s in range(1 << (n - 1)):
        seed_bits = np.array([(s >> b) & 1 for b in range(n - 1)], dtype=np.uint8)
        out = ToeplitzExtractor(ToeplitzSeed(BitBlock.from_bits(seed_bits), n, m)).extract_batch(packed)
        collisions += out[:, None, 0] == out[None, :, 0]  # m <= 8: one output byte
    np.fill_diagonal(collisions, 0)
    assert collisions.max() << m <= 1 << (n - 1)


def test_fast_matches_naive_production_geometry():
    rng = np.random.default_rng(3)
    seed = make_seed(1536, 1024, rng)
    xs = rng.integers(0, 2, (5, 1536)).astype(np.uint8)
    batch = extract_bits(seed, xs)
    for x, out in zip(xs, batch):
        assert np.array_equal(out, toeplitz_extract(BitBlock.from_bits(x), seed, 1024).bits())


def test_batch_extractor_matches_naive():
    rng = np.random.default_rng(4)
    seed = make_seed(256, 128, rng)
    blocks = rng.integers(0, 2, (32, 256)).astype(np.uint8)
    batch = extract_bits(seed, blocks)
    for i in range(32):
        ref = toeplitz_extract(BitBlock.from_bits(blocks[i]), seed, 128)
        assert np.array_equal(batch[i], ref.bits())


def test_batch_extractor_odd_widths_and_shape_check():
    # n and m not multiples of 8: pad bits of the input are ignored and the
    # pad bits of the output are zero
    rng = np.random.default_rng(15)
    seed = make_seed(75, 43, rng)
    xs = rng.integers(0, 2, (40, 75)).astype(np.uint8)
    packed = np.packbits(xs, axis=1)
    ext = ToeplitzExtractor(seed)
    out = ext.extract_batch(packed)
    assert out.shape == (40, 6) and out.dtype == np.uint8
    assert not np.any(out[:, -1] & 0x1F)
    noisy = packed.copy()
    noisy[:, -1] |= 0x1F  # set the 5 pad bits of the last input byte
    assert np.array_equal(ext.extract_batch(noisy), out)
    for x, row in zip(xs, np.unpackbits(out, axis=1, count=43)):
        assert np.array_equal(row, toeplitz_extract(BitBlock.from_bits(x), seed, 43).bits())
    with pytest.raises(ValueError):
        ext.extract_batch(xs)  # unpacked rows
    with pytest.raises(ValueError):
        ext.extract_batch(packed.astype(np.int64))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_gf2_linearity(raw_seed):
    rng = np.random.default_rng(raw_seed)
    seed = make_seed(96, 48, rng)
    a = BitBlock.from_bits(rng.integers(0, 2, 96).astype(np.uint8))
    b = BitBlock.from_bits(rng.integers(0, 2, 96).astype(np.uint8))
    ta = toeplitz_extract(a, seed, 48)
    tb = toeplitz_extract(b, seed, 48)
    tab = toeplitz_extract(BitBlock.from_bits(a.bits() ^ b.bits()), seed, 48)
    assert tab == BitBlock.from_bits(ta.bits() ^ tb.bits())


def test_admissible_prime_table():
    assert [p for p in range(62) if is_admissible(p)] == [3, 5, 11, 13, 19, 29, 37, 53, 59, 61]
    for bad in (7, 17, 23, 31, 41, 43, 47, 4, 9, 15):
        assert not is_admissible(bad)
    assert next_admissible(1535) == 1549
    assert is_admissible(1549)


def naive_cyclic_convolution(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.size
    out = np.zeros(n, dtype=np.uint8)
    for k in range(n):
        acc = 0
        for i in range(n):
            acc ^= int(x[i]) & int(y[(k - i) % n])
        out[k] = acc
    return out


def test_dodis_identity_element():
    rng = np.random.default_rng(5)
    n = 13
    y = rng.integers(0, 2, n).astype(np.uint8)
    e0 = np.zeros(n, dtype=np.uint8)
    e0[0] = 1
    out = dodis_extract(BitBlock.from_bits(e0), BitBlock.from_bits(y), 8)
    assert np.array_equal(out.bits(), y[:8])


def test_dodis_annihilator():
    rng = np.random.default_rng(6)
    n = 19
    y = BitBlock.from_bits(rng.integers(0, 2, n).astype(np.uint8))
    x = BitBlock.from_bits(np.zeros(n, dtype=np.uint8))
    assert not np.any(dodis_extract(x, y, n).bits())


def test_dodis_matches_naive_convolution():
    rng = np.random.default_rng(7)
    for n in (11, 19, 29):
        for _ in range(50):
            x = rng.integers(0, 2, n).astype(np.uint8)
            y = rng.integers(0, 2, n).astype(np.uint8)
            ref = naive_cyclic_convolution(x, y)[: n - 2]
            out = dodis_extract(BitBlock.from_bits(x), BitBlock.from_bits(y), n - 2)
            assert np.array_equal(out.bits(), ref)


def test_dodis_rejects_inadmissible_length():
    x = BitBlock.from_bits(np.ones(7, dtype=np.uint8))
    with pytest.raises(ValueError):
        dodis_extract(x, x, 3)
    y = BitBlock.from_bits(np.ones(13, dtype=np.uint8))
    with pytest.raises(ValueError):
        dodis_extract(y, y, 14)


def test_seed_chain_length_and_determinism():
    def raw(seed):
        return np.random.default_rng(seed).integers(0, 2, 8192).astype(np.uint8)

    s1 = seed_chain(raw(8), 1536, 1024)
    assert s1.bits.len == 1536 - 1 == 1535
    assert s1.bits == seed_chain(raw(8), 1536, 1024).bits
    assert s1.bits != seed_chain(raw(9), 1536, 1024).bits
    # x and y are the first two p-bit slices; bits past 2p are not read
    p = next_admissible(1535)
    tail = raw(8)
    tail[2 * p:] ^= 1
    assert seed_chain(tail, 1536, 1024).bits == s1.bits


def test_seed_chain_exhaustion_error():
    with pytest.raises(ValueError, match="2 \\* 67 = 134 raw bits, got 64"):
        seed_chain(np.ones(64, dtype=np.uint8), 64, 32)


class _OracleBitSource:
    """The frame-buffering source that provisioned the seed before
    `provision_seed`: fixed-size bit chunks out of an iterator of BitBlocks."""

    def __init__(self, blocks):
        self._it = iter(blocks)
        self._buf = np.zeros(0, dtype=np.uint8)

    def take(self, nbits: int) -> np.ndarray:
        parts = [self._buf]
        have = self._buf.size
        while have < nbits:
            blk = next(self._it)
            parts.append(blk.bits())
            have += blk.len
        cat = np.concatenate(parts)
        self._buf = cat[nbits:]
        return cat[:nbits]


def _oracle_seed(cfg: PipelineConfig) -> tuple[ToeplitzSeed, int]:
    """The old lazy provisioning: an endless generator of 4096-sample I
    frames at prng_seed + 900_000 + k, two p-bit takes, Dodis extraction."""
    model, spec = cfg.noise_model(), cfg.adc_spec()
    frames = []

    def raw_blocks():
        k = 0
        while True:
            frame = simulate_quadratures(model, 4096, cfg.prng_seed + 900_000 + k)
            frames.append(k)
            yield codes_to_bits(quantize_channel(frame.i_samples, spec).codes, spec.bits)
            k += 1

    source = _OracleBitSource(raw_blocks())
    need = cfg.block_n - 1
    p = next_admissible(need)
    x = BitBlock.from_bits(source.take(p))
    y = BitBlock.from_bits(source.take(p))
    return ToeplitzSeed(dodis_extract(x, y, need), cfg.block_n, cfg.block_m), len(frames)


@pytest.mark.parametrize("adc_bits, block_n, block_m, frames", [
    (16, 1536, 1024, 1),   # the preset: 2p = 3098 bits from one 65536-bit frame
    (4, 8192, 4096, 2),    # p = 8219 > 16384 / 2: y spans frames 0 and 1
    (4, 16384, 8192, 3),   # 2p > 32768: three frames
])
def test_provision_seed_matches_the_frame_buffering_oracle(adc_bits, block_n, block_m, frames):
    cfg = PipelineConfig(adc_bits=adc_bits, block_n=block_n, block_m=block_m, prng_seed=21)
    expected, drawn = _oracle_seed(cfg)
    assert drawn == frames
    assert provision_seed(cfg).bits == expected.bits

