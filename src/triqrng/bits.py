"""Packed bit blocks, the common currency of the extractors.

Packing convention: MSB-first within each byte (bit 0 of a block is the
most significant bit of byte 0). Trailing pad bits of the last byte are
always zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BitBlock:
    """A bit string packed into bytes plus its exact length in bits."""

    packed: np.ndarray  # uint8, MSB-first
    len: int

    def __post_init__(self) -> None:
        self.packed = np.ascontiguousarray(self.packed, dtype=np.uint8)
        if self.packed.size * 8 < self.len:
            raise ValueError(f"storage of {self.packed.size} bytes cannot hold {self.len} bits")
        if self.packed.size != (self.len + 7) // 8:
            raise ValueError("packed storage must be exactly ceil(len/8) bytes")
        pad = self.packed.size * 8 - self.len
        if pad and (self.packed[-1] & ((1 << pad) - 1)):
            raise ValueError("trailing pad bits must be zero")

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitBlock":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("expected a 1-d bit array")
        return cls(np.packbits(bits), int(bits.size))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitBlock":
        return cls(np.frombuffer(data, dtype=np.uint8).copy(), len(data) * 8)

    def bits(self) -> np.ndarray:
        """Unpacked 0/1 array of length ``len``."""
        return np.unpackbits(self.packed)[: self.len]

    def tobytes(self) -> bytes:
        return self.packed.tobytes()

    def __len__(self) -> int:
        return self.len

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitBlock):
            return NotImplemented
        return self.len == other.len and np.array_equal(self.packed, other.packed)


def codes_to_bits(codes: np.ndarray, bits: int) -> BitBlock:
    """Serialize signed ADC codes to a bit block.

    Each code is converted to offset binary (code + 2^(bits-1)) and emitted
    MSB-first, so a block of k codes yields k*bits bits. The offset code is
    left-aligned in a big-endian uint32, whose first `bits` bits are then
    the code's bits in order. At 8 and 16 bits the big-endian offset codes
    themselves are that stream and are emitted as they are; other depths
    take the general path.
    """
    codes = np.asarray(codes)
    offset = codes.astype(np.int64) + (1 << (bits - 1))
    if offset.min(initial=0) < 0 or offset.max(initial=0) >= (1 << bits):
        raise ValueError(f"codes out of range for {bits}-bit conversion")
    if bits in (8, 16):
        return BitBlock(offset.reshape(-1).astype(f">u{bits // 8}").view(np.uint8), codes.size * bits)
    words = (offset.reshape(-1) << (32 - bits)).astype(">u4")
    expanded = np.unpackbits(words.view(np.uint8).reshape(-1, 4), axis=1, count=bits)
    return BitBlock(np.packbits(expanded), codes.size * bits)
