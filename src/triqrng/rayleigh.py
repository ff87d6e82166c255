"""Rayleigh amplitudes and uniform phases from paired quadratures,
Savitzky-Golay denoising, and the float32 wire format of the amplitudes.

No extraction guarantee is attached to these outputs: amplitude values are
"denoised raw" everywhere in this package. The only denoiser is
Savitzky-Golay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class PhaseResult:
    angles: np.ndarray          # in [0, 2*pi)
    degenerate_pairs: int       # I = Q = 0 inputs, skipped


def rayleigh_raw(i_vals, q_vals) -> np.ndarray:
    """Element-wise amplitude sqrt(I^2 + Q^2).

    On the pipeline's truncated codes + 0.5, half-integers below 2^15 in
    magnitude, I^2 + Q^2 is exact in float64, so each amplitude is the
    correctly rounded square root.
    """
    i = np.asarray(i_vals, dtype=np.float64)
    q = np.asarray(q_vals, dtype=np.float64)
    if i.shape != q.shape:
        raise ValueError("I and Q must have equal length")
    return np.sqrt(i * i + q * q)


def phase_uniform(i_vals, q_vals) -> PhaseResult:
    """Phase angles atan2(Q, I) mapped into [0, 2*pi); origin pairs skipped."""
    i = np.asarray(i_vals, dtype=np.float64)
    q = np.asarray(q_vals, dtype=np.float64)
    if i.shape != q.shape:
        raise ValueError("I and Q must have equal length")
    degenerate = (i == 0.0) & (q == 0.0)
    theta = np.mod(np.arctan2(q[~degenerate], i[~degenerate]), 2.0 * np.pi)
    return PhaseResult(angles=theta, degenerate_pairs=int(np.count_nonzero(degenerate)))


def savitzky_golay_coefficients(window: int, order: int) -> np.ndarray:
    """Least-squares smoothing weights for the central point of a window."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    if not 0 <= order < window:
        raise ValueError("order must satisfy 0 <= order < window")
    half = window // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    design = np.vander(x, order + 1, increasing=True)
    return np.linalg.pinv(design)[0]


@lru_cache(maxsize=8)
def _savitzky_golay_weights(window: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (convolution kernel, edge projector) for one (window, order).

    The kernel is the central-point weights reversed for np.convolve; the
    projector maps `window` samples onto their least-squares polynomial.
    """
    kernel = savitzky_golay_coefficients(window, order)[::-1].copy()
    positions = np.arange(window, dtype=np.float64)
    design = np.vander(positions, order + 1, increasing=True)
    projector = design @ np.linalg.pinv(design)
    kernel.flags.writeable = False
    projector.flags.writeable = False
    return kernel, projector


def savitzky_golay(values, window: int = 31, order: int = 3) -> np.ndarray:
    """Local least-squares polynomial smoothing of a sample stream.

    Interior points use the symmetric window; each edge is handled by
    fitting one polynomial to the first/last `window` points and reading
    it off at the edge positions. Polynomials of degree <= order pass
    through unchanged.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if y.size < window:
        raise ValueError(f"need at least window={window} samples, got {y.size}")
    kernel, projector = _savitzky_golay_weights(window, order)
    half = window // 2
    out = np.convolve(y, kernel, mode="same")
    out[:half] = (projector @ y[:window])[:half]
    if half:
        out[-half:] = (projector @ y[-window:])[-half:]
    return out


def encode_rayleigh(values: np.ndarray) -> bytes:
    """Amplitudes as float32 LE."""
    return values.astype("<f4").tobytes()
