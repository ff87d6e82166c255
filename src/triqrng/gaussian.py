"""Two-stage Gaussian extraction and its int16 wire format.

Stage 1 keeps the top m bits of each code (entropy-based precision
selection). Stage 2, the recursive matrix method, passes each pool through
the fixed +-1 4 x 4 Hadamard in groups of K = 4, regrouped by transpose:
exact integer sums while max|code| * 4^passes <= 2^53, whatever the BLAS
kernel or thread count. One scale and one rounding put them on an m + K - 1
bit grid over +-DEFAULT_GRID_SIGMA; m is capped to fit the 16-bit wire format.

Pools are filled in bit-reversed index order. Detector-bandwidth
correlation only spans a few samples; bit reversal guarantees that samples
co-transformed in any early pass come from stream positions at least
pool_size / 2^ceil(log2(4^passes)) apart, so group variances stay
homogeneous and the pooled output remains a single Gaussian rather than a
variance mixture.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .adc import CodeBlock
from .entropy import EntropyReport

# The mixing matrix. Its entries are +-1, so HADAMARD.T @ HADAMARD is
# exactly 4 I, and a pass keeps integer values integer.
HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.float64)
HADAMARD.flags.writeable = False
K = HADAMARD.shape[0]  # group size of one transform
EXACT_LIMIT = 1 << 53  # float64 holds every integer up to here exactly
MAX_PASSES = 20  # 2^12 * 4^20 <= 2^53: exact sums of 13-bit stage-1 codes
DEFAULT_GRID_SIGMA = 5.0
WIRE_BITS = 16  # Gaussian codes travel left-justified in int16


def msb_truncate(codes: CodeBlock, m_bits: int) -> np.ndarray:
    """Keep the m most significant bits of each code (sign-preserving)."""
    bits = codes.spec.bits
    if not 1 <= m_bits <= bits:
        raise ValueError(f"m_bits must be in [1, {bits}]")
    return codes.codes.astype(np.int64) >> (bits - m_bits)


def precision_from_report(report: EntropyReport) -> int:
    """Stage-1 decision rule: m = floor(h_min_per_bit * ADC bits), capped so the
    m + K - 1 output bits fit the wire format (fewer bits than certified is safe)."""
    m = int(np.floor(report.h_min_per_bit * report.adc_bits))
    return max(1, min(m, report.adc_bits, WIRE_BITS + 1 - K))


def output_precision(m_bits: int) -> int:
    """Output width after the K-group transforms: m + K - 1 bits."""
    return m_bits + K - 1


@lru_cache(maxsize=8)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Bit-reversed index order of 0..n-1 (n a power of two), cached read-only."""
    if n < 1 or n & (n - 1):
        raise ValueError("pool size must be a power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    rev.flags.writeable = False
    return rev


def requantize(values: np.ndarray, n_out: int) -> np.ndarray:
    """Round to the nearest cell of a symmetric n_out-bit grid over +-DEFAULT_GRID_SIGMA."""
    lo, hi = -(1 << (n_out - 1)), (1 << (n_out - 1)) - 1
    return np.clip(np.round(values / grid_step(n_out)), lo, hi).astype(np.int64)


def grid_step(n_out: int) -> float:
    """Value of one n_out-bit output code step, in units of sigma."""
    return 2.0 * DEFAULT_GRID_SIGMA / (1 << n_out)


def mix_pools(truncated: np.ndarray, pool_size: int, passes: int, n_out: int) -> np.ndarray:
    """Requantized n_out-bit codes of every whole pool of truncated codes.

    Each pool of `pool_size` consecutive codes is gathered in bit-reversed
    order. A pass views it as an l x K array V and takes `HADAMARD @ V^T`:
    row j holds output j of every group, so the C-order product is already
    the regrouped pool. The integer-valued sums are exact; one scale by
    1 / (2^passes * rms), rms from the pool's exact int64 sum of squares,
    and one rounding give the codes. A trailing partial pool is ignored;
    carrying it over is the caller's job.
    """
    if passes < 1:
        raise ValueError("pass count must be >= 1")
    if pool_size < K:
        raise ValueError(f"pool size must be a power of two >= {K}")
    perm = bit_reversal_permutation(pool_size)
    whole = truncated[: truncated.size - truncated.size % pool_size].astype(np.int64, copy=False)
    peak = int(np.abs(whole).max()) if whole.size else 0
    if peak * K**passes > EXACT_LIMIT or peak * peak * pool_size >= 1 << 63:
        raise ValueError(f"codes up to {peak} over {passes} passes exceed the exact-integer range")
    outs = []
    for pool in whole.reshape(-1, pool_size):
        energy = int(pool @ pool)
        if energy == 0:
            raise ValueError("cannot normalize an all-zero pool")
        v = pool[perm].astype(np.float64)
        for _ in range(passes):
            v = (HADAMARD @ v.reshape(-1, K).T).reshape(-1)
        outs.append(requantize(v * (1.0 / (2**passes * np.sqrt(energy / pool_size))), n_out))
    return np.concatenate(outs) if outs else np.zeros(0, dtype=np.int64)


def encode_gaussian(codes_i: np.ndarray, codes_q: np.ndarray, n_out: int) -> bytes:
    """I/Q-interleaved (I first) n_out-bit codes, left-justified in int16 LE."""
    inter = np.empty(codes_i.size + codes_q.size, dtype=np.int64)
    inter[0::2] = codes_i
    inter[1::2] = codes_q
    return (inter << (WIRE_BITS - n_out)).astype("<i2").tobytes()
