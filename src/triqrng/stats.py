"""Statistical validation: KS and chi-squared goodness of fit against
Gaussian / Rayleigh / uniform references, and a four-test subset of the
SP 800-22 bit-level battery (monobit, block frequency, runs, longest run).

KS p-values use the asymptotic Kolmogorov distribution with the standard
small-sample correction, valid for n >= 100. Reference parameters default
to method-of-moments estimates from the sample (flagged in the report).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bits import BitBlock

DEFAULT_ALPHA = 0.01


@dataclass
class GofReport:
    """One hypothesis-test outcome."""

    test_name: str
    statistic: float
    p_value: float
    alpha: float
    passed: bool
    n_samples: int
    params_estimated: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value outside [0, 1]")
        if self.passed != (self.p_value >= self.alpha):
            raise ValueError("pass flag inconsistent with p_value/alpha")


def _report(name: str, stat: float, p: float, alpha: float, n: int, estimated: bool = False) -> GofReport:
    p = float(min(max(p, 0.0), 1.0))
    return GofReport(
        test_name=name,
        statistic=float(stat),
        p_value=p,
        alpha=alpha,
        passed=p >= alpha,
        n_samples=n,
        params_estimated=estimated,
    )


# ---------------------------------------------------------------------------
# reference distributions

def _resolve_reference(reference: str, params: tuple | None, samples: np.ndarray):
    """Return (cdf, quantile, n_fitted_params, estimated?)."""
    estimated = params is None
    if reference == "gaussian":
        if estimated:
            mu, sigma = float(np.mean(samples)), float(np.std(samples))
        else:
            mu, sigma = params
        if sigma <= 0:
            sigma = np.finfo(float).tiny
        return (
            lambda x: normal_cdf((x - mu) / sigma),
            lambda q: mu + sigma * normal_quantile(q),
            2,
            estimated,
        )
    if reference == "rayleigh":
        if estimated:
            sigma = float(np.sqrt(np.mean(samples**2) / 2.0))
        else:
            (sigma,) = params
        if sigma <= 0:
            sigma = np.finfo(float).tiny
        return (
            lambda x: 1.0 - np.exp(-np.clip(x, 0.0, None) ** 2 / (2.0 * sigma**2)),
            lambda q: sigma * np.sqrt(-2.0 * np.log1p(-np.asarray(q))),
            1,
            estimated,
        )
    if reference == "uniform":
        if estimated:
            mu, sd = float(np.mean(samples)), float(np.std(samples))
            half = math.sqrt(3.0) * sd
            a, b = mu - half, mu + half
        else:
            a, b = params
        if b <= a:
            b = a + np.finfo(float).tiny
        return (
            lambda x: np.clip((x - a) / (b - a), 0.0, 1.0),
            lambda q: a + (b - a) * np.asarray(q),
            2,
            estimated,
        )
    raise ValueError(f"unknown reference distribution {reference!r}")


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lambda)."""
    if lam <= 0:
        return 1.0
    k = np.arange(1, 101)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2)))


_erfc = np.frompyfunc(math.erfc, 1, 1)
_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def normal_cdf(z) -> np.ndarray:
    """Standard normal cdf, elementwise: 0.5 * erfc(-z / sqrt(2))."""
    return _erfc(np.asarray(z, dtype=np.float64) / -math.sqrt(2.0)).astype(np.float64) / 2.0


def normal_quantile(q) -> np.ndarray:
    """Standard normal quantile on (0, 1), elementwise (Wichura's AS 241)."""
    return _inv_cdf(np.asarray(q, dtype=np.float64)).astype(np.float64)


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS


def chi2_sf(stat: float, dof: int) -> float:
    """Chi-squared survival function: the regularized upper incomplete gamma Q(dof/2, stat/2).

    Below x = a + 1 it sums the series of P = 1 - Q, above it evaluates the
    continued fraction of Q by the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., section 6.2). The prefactor's logarithm
    loses about dof * 1e-16 to cancellation: the relative error is about
    1e-11 at the gate's dof (7,812), 1e-9 at 10^6 and 1e-7 at 10^8.
    """
    a, x = dof / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    terms = 100 + 20 * math.isqrt(int(a))  # near x = a either expansion needs a multiple of sqrt(a) terms
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, terms):
            term *= x / (a + n)
            total += term
            if term < total * _EPS:
                return max(0.0, 1.0 - prefactor * total)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for n in range(1, terms):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return prefactor * h
    raise ArithmeticError(f"chi2_sf did not converge for stat={stat}, dof={dof}")


def ks_test(samples, reference: str, params: tuple | None = None, alpha: float = DEFAULT_ALPHA) -> GofReport:
    """One-sample KS test against a named reference distribution."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 100:
        raise ValueError("KS test needs at least 100 samples (asymptotic p-value)")
    cdf, _, _, estimated = _resolve_reference(reference, params, x)
    f = cdf(x)
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return _report(f"ks-{reference}", d, kolmogorov_sf(lam), alpha, n, estimated)


def chi2_test(
    samples,
    reference: str,
    n_bins: int = 64,
    params: tuple | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> GofReport:
    """Pearson chi-squared test on an equal-probability partition.

    Bin edges are reference quantiles, so every bin has expected count
    n/n_bins; n_bins is capped so the expectation stays >= 5. Degrees of
    freedom are bins - 1 - (number of fitted parameters).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n_bins < 5:
        raise ValueError("need at least 5 bins")
    n_bins = min(n_bins, max(5, n // 5))  # keep expected counts >= 5
    cdf, quantile, n_fitted, estimated = _resolve_reference(reference, params, x)
    edges = quantile(np.arange(1, n_bins) / n_bins)
    obs = np.histogram(x, bins=np.concatenate(([-np.inf], edges, [np.inf])))[0]
    expected = n / n_bins
    if expected <= 0:
        raise ValueError("zero expected mass in bins")
    stat = float(np.sum((obs - expected) ** 2 / expected))
    dof = n_bins - 1 - (n_fitted if estimated else 0)
    return _report(f"chi2-{reference}", stat, chi2_sf(stat, dof), alpha, n, estimated)


# ---------------------------------------------------------------------------
# bit-level tests (SP 800-22 subset)

MIN_BITS = 1_000_000
BLOCK_FREQUENCY_M = 128

# longest-run-of-ones class tables: block length -> (K, N, v_min, class probs)
_LONGEST_RUN_TABLES = {
    8: (3, 16, 1, (0.2148, 0.3672, 0.2305, 0.1875)),
    128: (5, 49, 4, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    10000: (6, 75, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}


def monobit_test(bits: np.ndarray, alpha: float = DEFAULT_ALPHA) -> GofReport:
    n = bits.size
    s = abs(int(2 * np.count_nonzero(bits) - n)) / math.sqrt(n)
    return _report("monobit", s, math.erfc(s / math.sqrt(2.0)), alpha, n)


def block_frequency_test(bits: np.ndarray, m: int = BLOCK_FREQUENCY_M, alpha: float = DEFAULT_ALPHA) -> GofReport:
    n = bits.size
    nblocks = n // m
    pi = bits[: nblocks * m].reshape(nblocks, m).mean(axis=1)
    stat = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return _report("block-frequency", stat, chi2_sf(stat, nblocks), alpha, n)


def runs_test(bits: np.ndarray, alpha: float = DEFAULT_ALPHA) -> GofReport:
    n = bits.size
    pi = float(np.count_nonzero(bits)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency precondition failed; the sequence is already non-random
        return _report("runs", float("inf"), 0.0, alpha, n)
    v = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return _report("runs", v, math.erfc(num / den), alpha, n)


def longest_run_test(bits: np.ndarray, alpha: float = DEFAULT_ALPHA) -> GofReport:
    n = bits.size
    if n >= 750_000:
        m = 10000
    elif n >= 6272:
        m = 128
    else:
        m = 8
    k, nblocks, v_min, probs = _LONGEST_RUN_TABLES[m]
    blocks = bits[: nblocks * m].reshape(nblocks, m)
    # longest run of ones per block, vectorized over blocks
    padded = np.zeros((nblocks, m + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    starts = np.diff(padded, axis=1)
    longest = np.zeros(nblocks, dtype=np.int64)
    for b in range(nblocks):
        idx = np.flatnonzero(starts[b] == 1)
        if idx.size:
            ends = np.flatnonzero(starts[b] == -1)
            longest[b] = int(np.max(ends - idx))
    classes = np.clip(longest - v_min, 0, k)
    v = np.bincount(classes, minlength=k + 1)
    expected = nblocks * np.asarray(probs)
    stat = float(np.sum((v - expected) ** 2 / expected))
    return _report("longest-run", stat, chi2_sf(stat, k), alpha, n)


def bit_tests(block: BitBlock, alpha: float = DEFAULT_ALPHA) -> list[GofReport]:
    """Run the four-test subset on a packed bit block (>= 1e6 bits)."""
    if block.len < MIN_BITS:
        raise ValueError(f"bit tests need at least {MIN_BITS} bits, got {block.len}")
    bits = block.bits()
    return [
        monobit_test(bits, alpha),
        block_frequency_test(bits, alpha=alpha),
        runs_test(bits, alpha),
        longest_run_test(bits, alpha),
    ]
