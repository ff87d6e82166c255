import numpy as np
import pytest
from hypothesis import given, strategies as st

from triqrng.bits import BitBlock, codes_to_bits


@given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
def test_pack_unpack_roundtrip(bits):
    arr = np.array(bits, dtype=np.uint8)
    block = BitBlock.from_bits(arr)
    assert np.array_equal(block.bits(), arr)
    assert block.len == arr.size


def test_trailing_pad_bits_must_be_zero():
    with pytest.raises(ValueError):
        BitBlock(np.array([0xFF], dtype=np.uint8), 4)
    BitBlock(np.array([0xF0], dtype=np.uint8), 4)  # ok


def test_storage_must_match_length():
    with pytest.raises(ValueError):
        BitBlock(np.zeros(2, dtype=np.uint8), 3)


def test_from_bytes_and_tobytes():
    block = BitBlock.from_bytes(b"\xa5\x0f")
    assert block.len == 16
    assert block.tobytes() == b"\xa5\x0f"
    assert list(block.bits()[:8]) == [1, 0, 1, 0, 0, 1, 0, 1]  # MSB-first


def test_codes_to_bits_offset_binary_msb_first():
    # 4-bit codes: -8 -> 0000, 0 -> 1000, 7 -> 1111
    block = codes_to_bits(np.array([-8, 0, 7]), bits=4)
    assert list(block.bits()) == [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1]


def test_codes_to_bits_matches_shift_matrix_oracle():
    # oracle: the (N, bits) shift-matrix expansion, MSB first
    rng = np.random.default_rng(0)
    for bits in range(4, 25):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = np.concatenate([[lo, hi, 0, -1], rng.integers(lo, hi + 1, 997)]).astype(np.int32)
        offset = codes.astype(np.int64) + (1 << (bits - 1))
        shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
        expected = ((offset[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)
        block = codes_to_bits(codes, bits)
        assert block.len == codes.size * bits
        assert np.array_equal(block.bits(), expected), bits
    assert codes_to_bits(np.zeros(0, dtype=np.int32), 16).len == 0


@pytest.mark.parametrize("bits", range(4, 25))
@given(data=st.data())
def test_codes_to_bits_matches_per_bit_oracle(bits, data):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    codes = data.draw(st.lists(st.integers(lo, hi), max_size=40))
    expected = [((c - lo) >> b) & 1 for c in codes for b in range(bits - 1, -1, -1)]
    block = codes_to_bits(np.array(codes, dtype=np.int64), bits)
    assert block.len == len(expected)
    assert block.packed.tobytes() == np.packbits(np.array(expected, dtype=np.uint8)).tobytes()


def test_codes_to_bits_range_check():
    with pytest.raises(ValueError):
        codes_to_bits(np.array([8]), bits=4)
