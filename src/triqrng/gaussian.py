"""Two-stage Gaussian extraction.

Stage 1 keeps the top m bits of each code (entropy-based precision
selection). Stage 2 is the recursive matrix method: the pool is normalized
to unit mean square, then repeatedly transformed in groups of k by an
orthogonal matrix, with a transpose-based regrouping between passes and a
global sum-of-squares restoration per pass. Outputs are requantized to
m + k - 1 bits on a symmetric grid over +-DEFAULT_GRID_SIGMA; m is capped
so that width fits the 16-bit wire format.

Pools are filled in bit-reversed index order. Detector-bandwidth
correlation only spans a few samples; bit reversal guarantees that samples
co-transformed in any early pass come from stream positions at least
pool_size / 2^ceil(log2(4^passes)) apart, so group variances stay
homogeneous and the pooled output remains a single Gaussian rather than a
variance mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import CodeBlock
from .entropy import EntropyReport

ORTHO_TOL = 1e-12
DEFAULT_K = 4
DEFAULT_GRID_SIGMA = 5.0
WIRE_BITS = 16  # Gaussian codes travel left-justified in int16


def scaled_hadamard(k: int = DEFAULT_K) -> np.ndarray:
    """Orthogonal +-1/sqrt(k) Hadamard matrix (k a power of two)."""
    if k < 1 or k & (k - 1):
        raise ValueError("k must be a power of two")
    h = np.array([[1.0]])
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(k)


@dataclass
class RecursiveMatrix:
    """k x k orthogonal mixing matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        gram = m.T @ m
        if np.max(np.abs(gram - np.eye(m.shape[0]))) > ORTHO_TOL:
            raise ValueError("matrix must be orthogonal (M^T M = I within 1e-12)")
        self.entries = m

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass
class GaussianPool:
    """Unit-mean-square value pool processed in k-sized groups."""

    values: np.ndarray
    k: int
    pass_count: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0 or self.values.size % self.k:
            raise ValueError("pool size must be a positive multiple of k")

    @property
    def l(self) -> int:
        return self.values.size // self.k


def msb_truncate(codes: CodeBlock, m_bits: int) -> np.ndarray:
    """Keep the m most significant bits of each code (sign-preserving)."""
    bits = codes.spec.bits
    if not 1 <= m_bits <= bits:
        raise ValueError(f"m_bits must be in [1, {bits}]")
    return codes.codes.astype(np.int64) >> (bits - m_bits)


def precision_from_report(report: EntropyReport) -> int:
    """Stage-1 decision rule: m = floor(h_min_per_bit * ADC bits), capped so the
    m + k - 1 output bits fit the wire format (fewer bits than certified is safe)."""
    m = int(np.floor(report.h_min_per_bit * report.adc_bits))
    return max(1, min(m, report.adc_bits, WIRE_BITS + 1 - DEFAULT_K))


def output_precision(m_bits: int, k: int) -> int:
    """Output width after one k-group transform: m + k - 1 bits."""
    return m_bits + k - 1


def normalize_pool(values, k: int = DEFAULT_K) -> GaussianPool:
    """Scale a value pool so its mean squared value is exactly one."""
    v = np.asarray(values, dtype=np.float64)
    ms = float(np.mean(v**2)) if v.size else 0.0
    if ms == 0.0:
        raise ValueError("cannot normalize an all-zero pool")
    return GaussianPool(values=v / np.sqrt(ms), k=k)


def wallace_pass(pool: GaussianPool, matrix: RecursiveMatrix) -> GaussianPool:
    """One pass: l group transforms, transpose regrouping, energy restore.

    Row j of M @ V^T holds output j of every group, so the C-order
    product is already the regrouped pool and needs no transposed copy.
    """
    if matrix.k != pool.k:
        raise ValueError("matrix size must match the pool group size")
    v = pool.values
    ss0 = float(np.sum(v**2))
    mixed = (matrix.entries @ v.reshape(pool.l, pool.k).T).reshape(-1)
    # orthogonality preserves the sum of squares up to float drift; restore exactly
    mixed *= np.sqrt(ss0 / float(np.sum(mixed**2)))
    return GaussianPool(values=mixed, k=pool.k, pass_count=pool.pass_count + 1)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Bit-reversed index order of 0..n-1 (n a power of two)."""
    if n < 1 or n & (n - 1):
        raise ValueError("pool size must be a power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def requantize(values: np.ndarray, n_out: int) -> np.ndarray:
    """Round to the nearest cell of a symmetric n_out-bit grid over +-DEFAULT_GRID_SIGMA."""
    lo, hi = -(1 << (n_out - 1)), (1 << (n_out - 1)) - 1
    return np.clip(np.round(values / grid_step(n_out)), lo, hi).astype(np.int64)


def grid_step(n_out: int) -> float:
    """Value of one n_out-bit output code step, in units of sigma."""
    return 2.0 * DEFAULT_GRID_SIGMA / (1 << n_out)


def mix_pools(
    truncated: np.ndarray,
    perm: np.ndarray,
    matrix: RecursiveMatrix,
    passes: int,
    n_out: int,
) -> np.ndarray:
    """Requantized n_out-bit codes of every whole pool of truncated codes.

    Pools are len(perm) consecutive codes, gathered in `perm` order,
    normalized, mixed by `passes` passes and requantized. A trailing
    partial pool is ignored; carrying it over is the caller's job.
    """
    if passes < 1:
        raise ValueError("pass count must be >= 1")
    pool_size = perm.size
    outs = []
    for p in range(truncated.size // pool_size):
        chunk = truncated[p * pool_size : (p + 1) * pool_size]
        pool = normalize_pool(chunk.astype(np.float64)[perm], k=matrix.k)
        for _ in range(passes):
            pool = wallace_pass(pool, matrix)
        outs.append(requantize(pool.values, n_out))
    return np.concatenate(outs) if outs else np.zeros(0, dtype=np.int64)
