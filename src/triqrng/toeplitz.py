"""Strong extraction to uniform bits: seeded Toeplitz hashing over GF(2)
plus the two-source cyclic-convolution extractor that provisions the seed.

Toeplitz convention (fixed, golden-vector tested): for input length n and
output length m, the matrix is m x n with

    T[i][j] = s[n - 1 + i - j]

where s is the seed bit string of length n + m - 1, bit 0 first. Output
bit i is the GF(2) inner product of row i with the input. Equivalently,
output bits are coefficients n-1 .. n+m-2 of the carryless product
s(t) * x(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import BitBlock


@dataclass
class ToeplitzSeed:
    """Seed bits defining one n->m Toeplitz hash."""

    bits: BitBlock
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m > self.n:
            raise ValueError("m must be <= n")
        if self.bits.len != self.n + self.m - 1:
            raise ValueError(f"seed must hold n + m - 1 = {self.n + self.m - 1} bits, got {self.bits.len}")


def toeplitz_extract(block: BitBlock, seed: ToeplitzSeed, m: int) -> BitBlock:
    """Reference GF(2) matrix-vector path (the oracle for extract_batch)."""
    if block.len != seed.n:
        raise ValueError(f"input length {block.len} != seed.n {seed.n}")
    if m != seed.m:
        raise ValueError(f"m {m} != seed.m {seed.m}")
    s = seed.bits.bits()
    x = block.bits().astype(np.int64)
    n = seed.n
    rows = s[(n - 1 + np.arange(m)[:, None]) - np.arange(n)[None, :]]
    return BitBlock.from_bits(((rows.astype(np.int64) @ x) & 1).astype(np.uint8))


def _bits_to_int(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _int_to_bits(value: int, nbits: int) -> np.ndarray:
    raw = value.to_bytes((nbits + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:nbits]


def clmul(a: int, b: int) -> int:
    """Carryless (GF(2)[t]) product of two bit polynomials."""
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


class ToeplitzExtractor:
    """A seed expanded once for high-rate batch extraction.

    "Four Russians" table method (Arlazarov et al. 1970; Albrecht, Bard &
    Hart, ACM TOMS 2010): for input byte position p and byte value b,
    table[p][b] is the XOR of the Toeplitz columns 8p..8p+7 that b selects
    (MSB first), packed MSB-first into uint64 words with zero padding. A
    block's output is the XOR of one table row per input byte, so the batch
    path works on packed bytes end to end. Bit-exact against
    toeplitz_extract for any n and m.
    """

    def __init__(self, seed: ToeplitzSeed):
        self.seed = seed
        n, m = seed.n, seed.m
        n_bytes, n_words = -(-n // 8), -(-m // 64)
        # column j of T is s[n-1-j : n-1-j+m]
        columns = sliding_window_view(seed.bits.bits(), m)[::-1]
        packed = np.zeros((8 * n_bytes, 8 * n_words), dtype=np.uint8)
        packed[:n, : (m + 7) // 8] = np.packbits(columns, axis=1)
        packed = packed.view(np.uint64).reshape(n_bytes, 8, n_words)
        table = np.zeros((n_bytes, 256, n_words), dtype=np.uint64)
        for k in range(8):  # byte bit of value 2^k selects column 8p + 7 - k
            w = 1 << k
            table[:, w : 2 * w] = table[:, :w] ^ packed[:, 7 - k, None, :]
        self._table = table

    def extract_batch(self, blocks: np.ndarray) -> np.ndarray:
        """(B, ceil(n/8)) packed uint8 rows -> (B, ceil(m/8)) packed uint8 rows."""
        table = self._table
        if blocks.dtype != np.uint8 or blocks.ndim != 2 or blocks.shape[1] != table.shape[0]:
            raise ValueError(f"expected (B, {table.shape[0]}) packed uint8 array")
        acc = table[0].take(blocks[:, 0], axis=0)
        for p in range(1, table.shape[0]):
            acc ^= table[p].take(blocks[:, p], axis=0)
        return np.ascontiguousarray(acc.view(np.uint8)[:, : (self.seed.m + 7) // 8])


# ---------------------------------------------------------------------------
# Dodis two-source extractor: first m bits of the cyclic GF(2) convolution,
# valid when the length is a prime with 2 as a primitive root.

def _order_of_two(n: int) -> int:
    order, v = 1, 2 % n
    while v != 1:
        v = (v * 2) % n
        order += 1
        if order > n:  # pragma: no cover - cannot happen for prime n
            raise ArithmeticError("order computation diverged")
    return order


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_admissible(n: int) -> bool:
    """True when n is prime and 2 is a primitive root modulo n."""
    if n < 3 or not _is_prime(n):
        return False
    return _order_of_two(n) == n - 1


def next_admissible(n: int) -> int:
    """Smallest admissible prime >= n."""
    p = max(3, n)
    while not is_admissible(p):
        p += 1
    return p


def dodis_extract(x: BitBlock, y: BitBlock, m: int) -> BitBlock:
    """First m bits of x * y in GF(2)[t] / (t^n - 1)."""
    n = x.len
    if y.len != n:
        raise ValueError("x and y must have equal length")
    if not is_admissible(n):
        raise ValueError(f"n={n} is not an admissible length (prime with 2 a primitive root)")
    if not 0 < m <= n:
        raise ValueError("need 0 < m <= n")
    prod = clmul(_bits_to_int(x.bits()), _bits_to_int(y.bits()))
    folded = (prod & ((1 << n) - 1)) ^ (prod >> n)  # t^n == 1
    return BitBlock.from_bits(_int_to_bits(folded & ((1 << m) - 1), m))


def seed_chain(bits: np.ndarray, n: int, m: int) -> ToeplitzSeed:
    """Assemble an n->m Toeplitz seed from raw entropy bits via Dodis extraction.

    With p the smallest admissible prime >= n + m - 1, takes x = bits[:p]
    and y = bits[p:2p] and keeps the first n + m - 1 bits of
    dodis_extract(x, y).
    """
    need = n + m - 1
    p = next_admissible(need)
    if bits.size < 2 * p:
        raise ValueError(f"seed_chain needs 2 * {p} = {2 * p} raw bits, got {bits.size}")
    x = BitBlock.from_bits(bits[:p])
    y = BitBlock.from_bits(bits[p : 2 * p])
    return ToeplitzSeed(bits=dodis_extract(x, y, need), n=n, m=m)
