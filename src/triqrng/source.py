"""Synthetic dual-quadrature homodyne source.

Generates paired I/Q voltage records with a configurable quantum (shot
noise) component, classical excess noise, and a detector-bandwidth FIR
correlation filter. Quantum noise through the FIR filter plus white
excess noise is a moving-average process of order q = len(taps) - 1, so
each channel is simulated as one white innovation per sample through the
minimum-phase spectral factor of that process's autocovariance (Wilson,
SIAM J. Numer. Anal. 6, 1969): same lags, hence the same Gaussian law, at
one normal draw per sample. Gaussian deviates come from numpy's PCG64
generator (ziggurat method); the two channels use independently spawned
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

import numpy as np

TAP_NORM_TOL = 1e-6
FACTOR_TOL = 1e-12  # largest lag error of a spectral factor, relative to gamma_0
FACTOR_ITERATIONS = 100  # Newton steps; random taps of up to 64 need at most 14


def model_lags(taps, sigma_q2: float, excess_var: float) -> np.ndarray:
    """Autocovariance gamma_0..gamma_q of white noise of variance sigma_q2
    through `taps`, plus white excess noise of variance excess_var."""
    h = np.asarray(taps, dtype=float)
    gamma = sigma_q2 * np.correlate(h, h, "full")[h.size - 1:]
    gamma[0] += excess_var
    return gamma


def _wilson_factor(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Wilson's Newton iteration for b with sum_k b_k b_(k+j) = g_j, g_0 = 1.

    The Jacobian of the lags is J[j, m] = b_(m+j) + b_(m-j); since the lags
    are quadratic, J b = 2 * lags(b), so a Newton step solves
    J b' = g + lags(b). Started from (1, 0, ..., 0) on a spectrum that
    is positive on the unit circle, every iterate is minimum phase and the
    steps converge quadratically. Stops early once the lags are well inside
    FACTOR_TOL; returns b and the largest lag error of the b returned, which
    `spectral_factor` alone judges.
    """
    q = g.size - 1
    b = np.zeros(q + 1)
    b[0] = 1.0
    k = np.arange(q + 1)
    plus = k[None, :] + k[:, None]
    minus = k[None, :] - k[:, None]
    lags = np.correlate(b, b, "full")[q:]
    for _ in range(FACTOR_ITERATIONS):
        if np.max(np.abs(lags - g)) <= FACTOR_TOL / 100:
            break
        padded = np.concatenate([b, np.zeros(q + 1)])
        jac = padded[plus] + np.where(minus >= 0, b[np.clip(minus, 0, q)], 0.0)
        b = np.linalg.solve(jac, g + lags)
        lags = np.correlate(b, b, "full")[q:]
    return b, float(np.max(np.abs(lags - g)))


@lru_cache(maxsize=32)
def spectral_factor(taps: tuple[float, ...], sigma_q2: float, excess_var: float) -> np.ndarray:
    """The filter b that turns unit white noise into one channel's process.

    Its lags equal `model_lags(taps, sigma_q2, excess_var)`. With no excess
    noise b is sqrt(sigma_q2) * taps; with no quantum noise (LO off) it is
    the single tap sqrt(excess_var); both match by construction. Otherwise
    it is the minimum-phase factor (zeros inside the unit circle) from
    Wilson's iteration, accepted here, and only here, when its lags miss by
    at most FACTOR_TOL * gamma_0; else ValueError. The array is read-only.
    """
    if sigma_q2 == 0:
        b = np.array([np.sqrt(excess_var)])
    elif excess_var == 0:
        b = np.sqrt(sigma_q2) * np.asarray(taps, dtype=float)
    else:
        gamma = model_lags(taps, sigma_q2, excess_var)
        b, error = _wilson_factor(gamma / gamma[0])
        if not error <= FACTOR_TOL:
            raise ValueError(
                f"filter_taps: no spectral factor reproduces the source lags "
                f"(error {error:.3g} of gamma_0)"
            )
        b = b * np.sqrt(gamma[0])
    b.flags.writeable = False
    return b


@dataclass(frozen=True)
class NoiseModel:
    """Statistical description of the simulated homodyne chain.

    sigma_q2      quantum (vacuum/shot) variance per quadrature, V^2
    sigma_e2      classical excess-noise variance, V^2
    filter_taps   unit-energy FIR taps modeling detector bandwidth
    sigma_e2_q    optional per-channel override for the Q excess noise
    sat_clip_v    optional soft-clip level (volts); None disables saturation
    """

    sigma_q2: float
    sigma_e2: float
    filter_taps: tuple[float, ...] = (1.0,)
    sigma_e2_q: float | None = None
    sat_clip_v: float | None = None

    def __post_init__(self) -> None:
        # sigma_q2 == 0 is allowed so LO-off background records can be simulated
        if self.sigma_q2 < 0:
            raise ValueError("sigma_q2 must be >= 0")
        if self.sigma_e2 < 0:
            raise ValueError("sigma_e2 must be >= 0")
        taps = np.asarray(self.filter_taps, dtype=float)
        if taps.size == 0:
            raise ValueError("filter_taps must be non-empty")
        energy = float(np.sum(taps**2))
        if abs(energy - 1.0) > TAP_NORM_TOL:
            raise ValueError(
                f"filter_taps must have unit energy (sum of squares = 1), got {energy:.8f}"
            )
        self.factors()  # refuse taps whose factor cannot be verified

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The I and Q spectral factors; Q has its own when sigma_e2_q is set."""
        taps = tuple(float(t) for t in self.filter_taps)
        e_q = self.sigma_e2 if self.sigma_e2_q is None else self.sigma_e2_q
        return (spectral_factor(taps, self.sigma_q2, self.sigma_e2),
                spectral_factor(taps, self.sigma_q2, e_q))


@dataclass
class QuadratureFrame:
    """Paired, synchronized I/Q voltage records."""

    i_samples: np.ndarray
    q_samples: np.ndarray

    def __post_init__(self) -> None:
        self.i_samples = np.asarray(self.i_samples, dtype=np.float64)
        self.q_samples = np.asarray(self.q_samples, dtype=np.float64)
        if self.i_samples.shape != self.q_samples.shape:
            raise ValueError("I and Q records must have equal length")

    def __len__(self) -> int:
        return self.i_samples.size


def normalized_taps(taps) -> tuple[float, ...]:
    """Scale taps to unit energy so the filter preserves white-noise variance."""
    t = np.asarray(taps, dtype=float)
    norm = np.sqrt(np.sum(t**2))
    if norm == 0:
        raise ValueError("all-zero filter taps")
    return tuple(float(v) for v in t / norm)


def _channel(rng: np.random.Generator, factor: np.ndarray, count: int, sat_clip_v: float | None) -> np.ndarray:
    # draw count + q innovations so 'valid' convolution is steady state
    # over the whole record (no edge transient)
    out = rng.standard_normal(count + factor.size - 1)
    if factor.size > 1:
        out = np.convolve(out, factor, mode="valid")
    else:
        out *= factor[0]
    if sat_clip_v is not None:
        c = float(sat_clip_v)
        out = c * np.tanh(out / c)
    return out


def simulate_channels(model: NoiseModel, count: int, prng_seed: int) -> Iterator[np.ndarray]:
    """The I, then the Q record of `simulate_quadratures`, each simulated when asked for.

    A caller that is done with the I record before it asks for the Q
    record never holds both.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    for ss, factor in zip(np.random.SeedSequence(prng_seed).spawn(2), model.factors()):
        yield _channel(np.random.Generator(np.random.PCG64(ss)), factor, count, model.sat_clip_v)


def simulate_quadratures(model: NoiseModel, count: int, prng_seed: int) -> QuadratureFrame:
    """Generate `count` paired I/Q samples, deterministic for a fixed seed.

    Each channel has the law of white Gaussian quantum noise of variance
    sigma_q2 convolved with the bandwidth taps, plus independent white
    Gaussian excess noise; it is drawn as count + q unit normals through
    the channel's spectral factor. The channels are independent: each has
    its own PCG64 stream from `SeedSequence(prng_seed).spawn(2)`.
    """
    return QuadratureFrame(*simulate_channels(model, count, prng_seed))


def lo_power_sweep(
    model: NoiseModel,
    responsivity: float,
    powers,
    samples_per_point: int,
    prng_seed: int,
) -> list[tuple[float, float, float]]:
    """Sweep LO power and report (power, total variance, excess-only variance).

    The quantum variance at each point is responsivity * power, in place of
    the model's sigma_q2; the excess record (sigma_q2 = 0) stands in for the
    LO-blocked background measurement, so callers can fit (total - excess)
    against power.
    """
    powers = list(powers)
    if not powers:
        raise ValueError("powers must be non-empty")
    if any(p < 0 for p in powers):
        raise ValueError("negative LO power")
    out = []
    m_bg = replace(model, sigma_q2=0.0)
    for k, p in enumerate(powers):
        m_tot = replace(model, sigma_q2=responsivity * p)
        tot = simulate_quadratures(m_tot, samples_per_point, prng_seed + 2 * k)
        bg = simulate_quadratures(m_bg, samples_per_point, prng_seed + 2 * k + 1)
        out.append((float(p), float(np.var(tot.i_samples)), float(np.var(bg.i_samples))))
    return out
