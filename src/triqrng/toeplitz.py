"""Strong extraction to uniform bits: seeded modified Toeplitz hashing over
GF(2) plus the two-source cyclic-convolution extractor that provisions the seed.

Hash convention (fixed, golden-vector tested): for input length n and
output length m, the matrix is the m x n block matrix (I_m | T), with T an
m x (n - m) Toeplitz matrix. Column j of the whole matrix is

    M[i][j] = 1 if i == j else 0      for j < m
    M[i][j] = s[n - 1 + i - j]        for m <= j < n

where s is the seed bit string of length n - 1, bit 0 first. Output bit i
is the GF(2) inner product of row i with the input, so the output is the
input head x[:m] XOR T times the tail x[m:]. Equivalently, T x[m:] is
coefficients n-m-1 .. n-2 of the carryless product s(t) * x_tail(t).
The family is universal_2 (Hayashi & Tsurumaru, IEEE TIT 62, 2213, 2016):
if two tails are equal the heads differ, so the outputs differ; otherwise
T times the tails' difference is uniform over the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import BitBlock


@dataclass
class ToeplitzSeed:
    """Seed bits defining one n->m modified Toeplitz hash (I_m | T)."""

    bits: BitBlock
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m > self.n:
            raise ValueError("m must be <= n")
        if self.bits.len != self.n - 1:
            raise ValueError(f"seed must hold n - 1 = {self.n - 1} bits, got {self.bits.len}")


def toeplitz_extract(block: BitBlock, seed: ToeplitzSeed, m: int) -> BitBlock:
    """Reference GF(2) matrix-vector path (the oracle for extract_batch)."""
    if block.len != seed.n:
        raise ValueError(f"input length {block.len} != seed.n {seed.n}")
    if m != seed.m:
        raise ValueError(f"m {m} != seed.m {seed.m}")
    s = seed.bits.bits()
    x = block.bits().astype(np.int64)
    n = seed.n
    rows = np.zeros((m, n), dtype=np.int64)
    rows[:, :m] = np.eye(m, dtype=np.int64)
    rows[:, m:] = s[(n - 1 + np.arange(m)[:, None]) - np.arange(m, n)[None, :]]
    return BitBlock.from_bits(((rows @ x) & 1).astype(np.uint8))


class ToeplitzExtractor:
    """A seed expanded once for high-rate batch extraction.

    The whole head bytes x[:m//8] meet the identity part of (I_m | T), so
    they are copied straight into the output words. The remaining input
    bytes go through a "Four Russians" table (Arlazarov et al. 1970;
    Albrecht, Bard & Hart, ACM TOMS 2010): for input byte position
    p >= m//8 and byte value b, table[p - m//8][b] is the XOR of the matrix
    columns 8p..8p+7 that b selects (MSB first), packed MSB-first into
    uint64 words with zero padding. A byte holding both head and tail bits
    gets identity columns for its head bits, and input pad bits select zero
    columns. A block's output is its head XOR one table row per remaining
    input byte, so the batch path works on packed bytes end to end.
    Bit-exact against toeplitz_extract for any n and m.
    """

    def __init__(self, seed: ToeplitzSeed):
        self.seed = seed
        n, m = seed.n, seed.m
        self._n_bytes, self._head = -(-n // 8), m // 8
        n_words = -(-m // 64)
        first = 8 * self._head  # first input bit the table covers
        columns = np.zeros((8 * self._n_bytes - first, m), dtype=np.uint8)
        columns[np.arange(first, m) - first, np.arange(first, m)] = 1
        if n > m:  # column j >= m is s[n-1-j : n-1-j+m]
            columns[m - first : n - first] = sliding_window_view(seed.bits.bits(), m)[::-1]
        packed = np.zeros((columns.shape[0], 8 * n_words), dtype=np.uint8)
        packed[:, : (m + 7) // 8] = np.packbits(columns, axis=1)
        packed = packed.view(np.uint64).reshape(-1, 8, n_words)
        table = np.zeros((packed.shape[0], 256, n_words), dtype=np.uint64)
        for k in range(8):  # byte bit of value 2^k selects column 8p + 7 - k
            w = 1 << k
            table[:, w : 2 * w] = table[:, :w] ^ packed[:, 7 - k, None, :]
        self._table = table

    def extract_batch(self, blocks: np.ndarray) -> np.ndarray:
        """(B, ceil(n/8)) packed uint8 rows -> (B, ceil(m/8)) packed uint8 rows."""
        table, head = self._table, self._head
        if blocks.dtype != np.uint8 or blocks.ndim != 2 or blocks.shape[1] != self._n_bytes:
            raise ValueError(f"expected (B, {self._n_bytes}) packed uint8 array")
        acc = np.zeros((blocks.shape[0], table.shape[2]), dtype=np.uint64)
        out = acc.view(np.uint8)
        out[:, :head] = blocks[:, :head]
        for p in range(len(table)):
            acc ^= table[p].take(blocks[:, head + p], axis=0)
        return np.ascontiguousarray(out[:, : (self.seed.m + 7) // 8])


# ---------------------------------------------------------------------------
# Dodis two-source extractor: first m bits of the cyclic GF(2) convolution,
# valid when the length is a prime with 2 as a primitive root.

def _order_of_two(n: int) -> int:
    """Multiplicative order of 2 modulo n, an odd prime."""
    order, v = 1, 2 % n
    while v != 1:
        v = (v * 2) % n
        order += 1
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
    # integer coefficient sums of at most n, exact in float64; their parities are the GF(2) product
    prod = np.convolve(x.bits().astype(np.float64), y.bits().astype(np.float64))
    prod[: n - 1] += prod[n:]  # t^n == 1
    return BitBlock.from_bits(prod[:m].astype(np.int64) & 1)


def seed_chain(bits: np.ndarray, n: int, m: int) -> ToeplitzSeed:
    """Assemble an n->m Toeplitz seed from raw entropy bits via Dodis extraction.

    With p the smallest admissible prime >= n - 1, takes x = bits[:p]
    and y = bits[p:2p] and keeps the first n - 1 bits of
    dodis_extract(x, y).
    """
    need = n - 1
    p = next_admissible(need)
    if bits.size < 2 * p:
        raise ValueError(f"seed_chain needs 2 * {p} = {2 * p} raw bits, got {bits.size}")
    x = BitBlock.from_bits(bits[:p])
    y = BitBlock.from_bits(bits[p : 2 * p])
    return ToeplitzSeed(bits=dodis_extract(x, y, need), n=n, m=m)
