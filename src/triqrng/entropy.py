"""Certified min-entropy of digitized homodyne samples.

Implements the worst-case-conditional entropy bound for an effective
thermal occupation n against quantum side information:

    H_min >= -log2[ (sqrt(n) + sqrt(1+n))^2 * erf(dx / (2 g*)) ]

with g* the balance point  erf(dx/(2g)) = erfc(r/g)  between the
most-likely-bin mass and the out-of-range tail mass. The nonlinear-ADC
variant widens the worst-case bin to dx*(1 + DNL_max). The effective
occupation comes from the measured variance and the conditional variance
of the quantum signal (its one-step linear-prediction error, from its
autocovariance lags by the Levinson-Durbin recursion), and the extractable
length follows the leftover hash lemma with a log2(1/(2 eps^2)) penalty.
LagWindow keeps the lag sums of one channel's ADC codes over a trailing
window of fed batches.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adc import AdcSpec

G_STAR_REL_TOL = 1e-12
DEFAULT_EPSILON = 2.0**-32
DEFAULT_PREDICTION_ORDER = 16
LAG_CHUNK = 8192  # samples per np.correlate call: OpenBLAS runs a dot this short on one thread


@dataclass
class EntropyReport:
    """Certified entropy for one channel plus the intermediate quantities."""

    channel: str
    h_min_per_sample: float
    h_min_per_bit: float
    g_star: float
    n_eff: float
    sigma_m2: float
    sigma_qc2: float
    epsilon: float
    extractable_fraction: float
    adc_bits: int
    dnl_max: float
    prediction_order: int
    n_samples: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.h_min_per_sample <= self.adc_bits:
            raise ValueError(f"h_min_per_sample {self.h_min_per_sample} outside [0, {self.adc_bits}]")
        if self.n_eff < 0 or self.g_star <= 0:
            raise ValueError("invalid n_eff / g_star")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")


@lru_cache(maxsize=128)
def solve_g_star(delta_x: float, r: float) -> float:
    """Solve erf(dx/(2g)) = erfc(r/g) for g by bisection.

    Pure in (delta_x, r), so solutions are cached: a certification needs the
    same g* for every channel and record.

    The left side decreases and the right side increases in g, so the
    difference has a single sign change. Converges until the residual is
    below 1e-12 relative to the erf term or the bracket is exhausted.
    """
    if not 0 < delta_x < r:
        raise ValueError(f"need 0 < delta_x < r, got delta_x={delta_x}, r={r}")

    def f(g: float) -> float:
        return math.erf(delta_x / (2 * g)) - math.erfc(r / g)

    lo, hi = 1e-12 * r, 1e12 * r
    if not f(lo) > 0 > f(hi):  # only when delta_x / r is so small that erf's argument underflows
        raise ArithmeticError(
            f"no sign change bracketing g* for delta_x={delta_x}, r={r}; refusing to extrapolate"
        )
    for _ in range(400):
        g = 0.5 * (lo + hi)
        if f(g) > 0:
            lo = g
        else:
            hi = g
        erf_term = math.erf(delta_x / (2 * g))
        if abs(erf_term - math.erfc(r / g)) <= G_STAR_REL_TOL * erf_term:
            return g
        if hi - lo <= np.spacing(lo):
            break
    raise ArithmeticError(f"g* bisection did not reach residual tolerance at g={g}")


def _occupation_prefactor(n_photon: float) -> float:
    return (math.sqrt(n_photon) + math.sqrt(1.0 + n_photon)) ** 2


def min_entropy_iid(n_photon: float, delta_x: float, r: float) -> float:
    """Entropy bound (bits/sample) for an ideal ADC under iid noise."""
    if n_photon < 0:
        raise ValueError("n_photon must be >= 0")
    g = solve_g_star(delta_x, r)
    return -math.log2(_occupation_prefactor(n_photon) * math.erf(delta_x / (2 * g)))


def min_entropy_nonlinear(n_photon: float, spec: AdcSpec) -> float:
    """Entropy bound (bits/sample) with the DNL-widened worst-case bin.

    g* is solved with the ideal bin width; only the erf numerator uses the
    widened bin dx*(1 + DNL_max). Reduces to min_entropy_iid at DNL_max=0.
    """
    if n_photon < 0:
        raise ValueError("n_photon must be >= 0")
    dx = spec.bin_width
    r = spec.range_v / 2
    g = solve_g_star(dx, r)
    widened = dx * (1.0 + spec.dnl_max)
    return -math.log2(_occupation_prefactor(n_photon) * math.erf(widened / (2 * g)))


def effective_photon_number(sigma_m2: float, sigma_qc2: float) -> float:
    """Effective thermal occupation from measured and conditional variances."""
    if sigma_qc2 <= 0:
        raise ValueError("sigma_qc2 must be positive")
    if sigma_m2 < sigma_qc2:
        raise ValueError(
            f"measured variance {sigma_m2} below conditional quantum variance {sigma_qc2}"
        )
    return sigma_m2 / (2.0 * sigma_qc2) - 0.5


class LagWindow:
    """Streaming lag sums of one channel's codes over a trailing window of batches.

    Each fed batch keeps its sample count, its sum and its lag products
    sum x_t x_(t-k), k = 0..order, over the samples t it holds: a product
    belongs to the batch of its later sample, the last `order` samples
    carry into the next batches, and a product reaching before the first
    fed sample is zero. Once the newer batches alone hold `window_samples`
    samples the oldest batch leaves the window. On int16 codes every
    partial sum is an exact integer while the window holds at most 2^23
    samples, where the sums stay below 2^53, so the sums do not depend on
    how the stream was split.
    """

    def __init__(self, order: int, window_samples: int):
        self.order = order
        self.window_samples = window_samples
        self._tail = np.zeros(order)
        self._batches: deque[tuple[int, float, np.ndarray]] = deque()  # (samples, sum, lag sums)
        self.n_samples = 0

    def feed(self, codes) -> None:
        """Add one batch of codes that continues the fed stream."""
        codes = np.asarray(codes)
        if codes.size == 0:
            return
        p = self.order
        lags = np.zeros(p + 1)  # lags[p - k] is the lag-k sum
        total = 0.0
        buf = self._tail
        for s in range(0, codes.size, LAG_CHUNK):  # float64 one chunk at a time
            x = codes[s : s + LAG_CHUNK].astype(np.float64)
            buf = np.concatenate([buf[buf.size - p :], x])
            lags += np.correlate(buf, x, "valid")
            total += float(x.sum())
        self._tail = buf[buf.size - p :].copy()
        self._batches.append((codes.size, total, lags[::-1]))
        self.n_samples += codes.size
        while self.n_samples - self._batches[0][0] >= self.window_samples:
            self.n_samples -= self._batches.popleft()[0]

    def autocovariance(self) -> np.ndarray:
        """Lags 0..order of the window: pooled lag sums over n minus the squared mean.

        Lag 0 is the population variance of the window's samples.
        """
        n = self.n_samples
        if n <= self.order:
            raise ValueError(f"need more than prediction_order={self.order} samples, got {n}")
        total = sum(b[1] for b in self._batches)
        lags = sum(b[2] for b in self._batches)
        return lags / n - (total / n) ** 2


def conditional_variance(acov, order: int = DEFAULT_PREDICTION_ORDER) -> float:
    """One-step linear-prediction error variance of a process with these lags.

    `acov` holds the autocovariance at lags 0, 1, ... (at least order + 1
    of them). The Levinson-Durbin recursion gives the error at the
    requested order; order 0 returns the lag-0 variance. Fails closed:
    lags that are not positive definite up to the order raise ValueError,
    seen as an error <= 0 (a reflection coefficient of magnitude >= 1
    makes the next error <= 0).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    r = np.asarray(acov, dtype=np.float64)
    if r.ndim != 1 or r.size <= order:
        raise ValueError(f"need autocovariance lags 0..{order}")
    err = float(r[0])
    if not err > 0:
        raise ValueError(f"lag-0 variance {err} is not positive")
    a = np.zeros(order + 1)
    a[0] = 1.0
    for k in range(1, order + 1):
        lam = -float(np.dot(a[:k], r[k:0:-1])) / err
        a[: k + 1] = a[: k + 1] + lam * a[k::-1]
        err *= 1.0 - lam * lam
        if not err > 0:
            raise ValueError(f"lags not positive definite: prediction error {err} at order {k} "
                             f"(reflection coefficient {lam})")
    return err


def extractable_length(n_bits: int, h_min_per_bit: float, epsilon: float) -> int:
    """Leftover-hash output budget: floor(n*H - log2(1/(2 eps^2))), min 0."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    if not 0 < h_min_per_bit <= 1:
        raise ValueError("h_min_per_bit must be in (0, 1]")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    penalty = math.log2(1.0 / (2.0 * epsilon * epsilon))
    return max(0, math.floor(n_bits * h_min_per_bit - penalty))
