"""Synthetic dual-quadrature homodyne source.

Generates paired I/Q voltage records with a configurable quantum (shot
noise) component, classical excess noise, and a detector-bandwidth FIR
correlation filter. Gaussian deviates come from numpy's PCG64 generator
(ziggurat method); the two channels use independently spawned streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

TAP_NORM_TOL = 1e-6
LINEARITY_TOL = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Statistical description of the simulated homodyne chain.

    sigma_q2      quantum (vacuum/shot) variance per quadrature, V^2
    sigma_e2      classical excess-noise variance, V^2
    filter_taps   unit-energy FIR taps modeling detector bandwidth
    lo_power_mw   local-oscillator power per diode, mW
    responsivity  V^2 of quantum variance per mW of LO power
    sigma_e2_q    optional per-channel override for the Q excess noise
    sat_clip_v    optional soft-clip level (volts); None disables saturation
    """

    sigma_q2: float
    sigma_e2: float
    filter_taps: tuple[float, ...] = (1.0,)
    lo_power_mw: float = 1.0
    responsivity: float | None = None
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
        if self.responsivity is not None:
            expected = self.responsivity * self.lo_power_mw
            scale = max(abs(expected), abs(self.sigma_q2), 1e-300)
            if abs(expected - self.sigma_q2) > LINEARITY_TOL * scale:
                raise ValueError(
                    "sigma_q2 must equal responsivity * lo_power_mw in the linear regime "
                    f"({self.sigma_q2} != {expected})"
                )

    @classmethod
    def at_lo_power(
        cls,
        lo_power_mw: float,
        responsivity: float,
        sigma_e2: float,
        filter_taps,
        **kw,
    ) -> "NoiseModel":
        """Build a model on the linear shot-noise slope of the LO sweep."""
        if lo_power_mw < 0:
            raise ValueError("LO power must be >= 0")
        return cls(
            sigma_q2=responsivity * lo_power_mw,
            sigma_e2=sigma_e2,
            filter_taps=tuple(float(t) for t in np.asarray(filter_taps, dtype=float)),
            lo_power_mw=lo_power_mw,
            responsivity=responsivity,
            **kw,
        )


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


def _channel(rng: np.random.Generator, model: NoiseModel, count: int, excess_var: float) -> np.ndarray:
    taps = np.asarray(model.filter_taps, dtype=float)
    # draw count + len(taps) - 1 quantum samples so 'valid' convolution is
    # steady state over the whole record (no edge transient)
    quantum = rng.standard_normal(count + taps.size - 1) * np.sqrt(model.sigma_q2)
    filtered = np.convolve(quantum, taps, mode="valid") if taps.size > 1 else quantum
    out = filtered + rng.standard_normal(count) * np.sqrt(excess_var)
    if model.sat_clip_v is not None:
        c = float(model.sat_clip_v)
        out = c * np.tanh(out / c)
    return out


def simulate_quadratures(model: NoiseModel, count: int, prng_seed: int) -> QuadratureFrame:
    """Generate `count` paired I/Q samples, deterministic for a fixed seed.

    Each channel is white Gaussian quantum noise of variance sigma_q2
    convolved with the bandwidth taps, plus independent white Gaussian
    excess noise; the channels are statistically independent.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    ss_i, ss_q = np.random.SeedSequence(prng_seed).spawn(2)
    rng_i = np.random.Generator(np.random.PCG64(ss_i))
    rng_q = np.random.Generator(np.random.PCG64(ss_q))
    e_q = model.sigma_e2 if model.sigma_e2_q is None else model.sigma_e2_q
    return QuadratureFrame(
        i_samples=_channel(rng_i, model, count, model.sigma_e2),
        q_samples=_channel(rng_q, model, count, e_q),
    )


def lo_power_sweep(
    model: NoiseModel,
    powers,
    samples_per_point: int,
    prng_seed: int,
) -> list[tuple[float, float, float]]:
    """Sweep LO power and report (power, total variance, excess-only variance).

    The quantum variance at each point is responsivity * power; the excess
    record stands in for the LO-blocked background measurement, so callers
    can fit (total - excess) against power.
    """
    powers = list(powers)
    if not powers:
        raise ValueError("powers must be non-empty")
    if any(p < 0 for p in powers):
        raise ValueError("negative LO power")
    if model.responsivity is None:
        raise ValueError("model must define a responsivity for a power sweep")
    out = []
    for k, p in enumerate(powers):
        m_tot = replace(model, sigma_q2=model.responsivity * p, lo_power_mw=p)
        m_bg = replace(model, sigma_q2=0.0, lo_power_mw=0.0, responsivity=None)
        tot = simulate_quadratures(m_tot, samples_per_point, prng_seed + 2 * k)
        bg = simulate_quadratures(m_bg, samples_per_point, prng_seed + 2 * k + 1)
        out.append((float(p), float(np.var(tot.i_samples)), float(np.var(bg.i_samples))))
    return out


def write_frame_raw(frame: QuadratureFrame, i_path: str, q_path: str) -> None:
    """Dump each channel as little-endian float32."""
    frame.i_samples.astype("<f4").tofile(i_path)
    frame.q_samples.astype("<f4").tofile(q_path)


def write_frame_csv(frame: QuadratureFrame, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "I", "Q"])
        for k, (i, q) in enumerate(zip(frame.i_samples, frame.q_samples)):
            w.writerow([k, repr(i), repr(q)])
