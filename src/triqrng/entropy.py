"""Certified min-entropy of digitized homodyne samples.

Implements the worst-case-conditional entropy bound for an effective
thermal occupation n against quantum side information:

    H_min >= -log2[ (sqrt(n) + sqrt(1+n))^2 * erf(dx / (2 g*)) ]

with g* the balance point  erf(dx/(2g)) = erfc(r/g)  between the
most-likely-bin mass and the out-of-range tail mass. The nonlinear-ADC
variant widens the worst-case bin to dx*(1 + DNL_max). The effective
occupation comes from the measured variance and the conditional variance
of the quantum signal (one-step linear prediction error derived from its
PSD), and the extractable length follows the leftover hash lemma with a
log2(1/(2 eps^2)) penalty.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .adc import AdcSpec

G_STAR_REL_TOL = 1e-12
DEFAULT_EPSILON = 2.0**-32
DEFAULT_PREDICTION_ORDER = 16


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
    psd_segment: int
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
        return special.erf(delta_x / (2 * g)) - special.erfc(r / g)

    lo, hi = 1e-12 * r, 1e12 * r
    flo, fhi = f(lo), f(hi)
    for _ in range(200):
        if flo > 0 > fhi:
            break
        if flo <= 0:
            lo /= 64.0
            flo = f(lo)
        if fhi >= 0:
            hi *= 64.0
            fhi = f(hi)
    else:
        raise ArithmeticError(
            f"no sign change bracketing g* for delta_x={delta_x}, r={r}; refusing to extrapolate"
        )

    g = 0.5 * (lo + hi)
    for _ in range(400):
        g = 0.5 * (lo + hi)
        if f(g) > 0:
            lo = g
        else:
            hi = g
        erf_term = special.erf(delta_x / (2 * g))
        if abs(erf_term - special.erfc(r / g)) <= G_STAR_REL_TOL * erf_term:
            return g
        if hi - lo <= np.spacing(lo):
            break
    erf_term = special.erf(delta_x / (2 * g))
    if abs(erf_term - special.erfc(r / g)) <= G_STAR_REL_TOL * erf_term:
        return g
    raise ArithmeticError(f"g* bisection did not reach residual tolerance at g={g}")


def _occupation_prefactor(n_photon: float) -> float:
    return (math.sqrt(n_photon) + math.sqrt(1.0 + n_photon)) ** 2


def min_entropy_iid(n_photon: float, delta_x: float, r: float) -> float:
    """Entropy bound (bits/sample) for an ideal ADC under iid noise."""
    if n_photon < 0:
        raise ValueError("n_photon must be >= 0")
    g = solve_g_star(delta_x, r)
    return -math.log2(_occupation_prefactor(n_photon) * special.erf(delta_x / (2 * g)))


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
    return -math.log2(_occupation_prefactor(n_photon) * special.erf(widened / (2 * g)))


def effective_photon_number(sigma_m2: float, sigma_qc2: float) -> float:
    """Effective thermal occupation from measured and conditional variances."""
    if sigma_qc2 <= 0:
        raise ValueError("sigma_qc2 must be positive")
    if sigma_m2 < sigma_qc2:
        raise ValueError(
            f"measured variance {sigma_m2} below conditional quantum variance {sigma_qc2}"
        )
    return sigma_m2 / (2.0 * sigma_qc2) - 0.5


def conditional_variance(psd, order: int = DEFAULT_PREDICTION_ORDER) -> float:
    """One-step linear-prediction error variance of a process with this PSD.

    `psd` is a sequence of (frequency, one-sided density) rows as returned
    by psd_estimate. The autocovariance is recovered by inverse transform
    and the prediction error at the requested order comes from the
    Levinson-Durbin recursion; order 0 returns the process variance.
    """
    arr = np.asarray(psd, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("psd must be (nbins, 2) rows of (frequency, density)")
    freqs, dens = arr[:, 0], arr[:, 1]
    if np.any(dens <= 0):
        raise ValueError("degenerate spectrum: PSD bins must be strictly positive")
    if order < 0:
        raise ValueError("order must be >= 0")
    nfft = (arr.shape[0] - 1) * 2
    if order > nfft // 2:
        raise ValueError("prediction order too large for this PSD resolution")
    df = freqs[1] - freqs[0]
    fs = nfft * df
    # undo the one-sided fold, then irfft * fs integrates density -> autocovariance
    half = dens.copy()
    half[1:-1] *= 0.5
    acov = np.fft.irfft(half, n=nfft)[: order + 1] * fs
    err = float(acov[0])
    if order == 0:
        return err
    a = np.zeros(order + 1)
    a[0] = 1.0
    for k in range(1, order + 1):
        lam = -float(np.dot(a[:k], acov[k:0:-1])) / err
        a[: k + 1] = a[: k + 1] + lam * a[k::-1]
        err *= 1.0 - lam * lam
    return float(err)


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
