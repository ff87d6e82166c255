"""Digitizer model: voltage-to-code mapping with bounded DNL.

Codes are offset binary internally and exposed as signed two's-complement
integers in [-2^(N-1), 2^(N-1)-1]. Differential nonlinearity is modeled as
deterministic bounded uniform jitter on the bin edges; dnl_max < 0.5
guarantees strictly increasing edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class AdcSpec:
    """Digitizer geometry: bit depth, full-scale span, DNL bound."""

    bits: int = 16
    range_v: float = 0.128  # full-scale peak-to-peak span
    dnl_max: float = 0.0    # max edge deviation in units of the ideal bin width
    dnl_seed: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.bits <= 24:
            raise ValueError("bits must be in [4, 24]")
        if self.range_v <= 0:
            raise ValueError("range_v must be positive")
        if not 0 <= self.dnl_max < 0.5:
            raise ValueError("dnl_max must be in [0, 0.5): 0.5 or more can invert bins")

    @property
    def bin_width(self) -> float:
        """Ideal bin width: range_v / 2^bits."""
        return self.range_v / (1 << self.bits)

    @property
    def code_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def code_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


@dataclass
class CodeBlock:
    """Signed digitizer codes plus the spec that produced them."""

    codes: np.ndarray
    spec: AdcSpec
    clamped: int = 0  # samples that fell outside full scale

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes)
        if self.codes.size:
            lo, hi = int(self.codes.min()), int(self.codes.max())
            if lo < self.spec.code_min or hi > self.spec.code_max:
                raise ValueError(f"codes out of range for {self.spec.bits} bits")

    def __len__(self) -> int:
        return self.codes.size

    def tofile(self, path: str) -> None:
        """Write as little-endian signed 16-bit raw; deeper codes do not fit."""
        if self.spec.bits > 16:
            raise ValueError(f"{self.spec.bits}-bit codes do not fit the int16 file format")
        self.codes.astype("<i2").tofile(path)

    @classmethod
    def fromfile(cls, path: str, spec: AdcSpec) -> CodeBlock:
        """Read a tofile() record; codes outside spec's range are rejected."""
        if spec.bits > 16:
            raise ValueError(f"{spec.bits}-bit codes do not fit the int16 file format")
        return cls(codes=np.fromfile(path, dtype="<i2").astype(np.int32), spec=spec)


def dnl_profile(spec: AdcSpec) -> np.ndarray:
    """Per-edge offsets (volts) for the 2^bits - 1 interior bin edges.

    Deterministic in dnl_seed; every |offset| <= dnl_max * bin width, and
    the perturbed edges stay strictly increasing.
    """
    n_edges = (1 << spec.bits) - 1
    if spec.dnl_max == 0.0:
        return np.zeros(n_edges)
    rng = np.random.Generator(np.random.PCG64(spec.dnl_seed))
    return rng.uniform(-spec.dnl_max, spec.dnl_max, size=n_edges) * spec.bin_width


@lru_cache(maxsize=8)
def _edges(spec: AdcSpec) -> np.ndarray:
    ideal = -spec.range_v / 2 + spec.bin_width * np.arange(1, 1 << spec.bits)
    return ideal + dnl_profile(spec)


@lru_cache(maxsize=8)
def _padded_edges(spec: AdcSpec) -> np.ndarray:
    """Lower edge of every offset bin: -inf for bin 0, then _edges, then a NaN
    sentinel at 2^bits that no comparison ever passes."""
    return np.concatenate(([-np.inf], _edges(spec), [np.nan]))


QUANTIZE_CHUNK = 1 << 16  # samples per pass; one pass per default channel measured fastest on the source worker
ONE_STEP_DNL = 0.45  # DNL bounds up to this leave the one-step guess of quantize_channel ample room


def quantize_channel(volts: np.ndarray, spec: AdcSpec) -> CodeBlock:
    """Map one voltage record to codes; out-of-range values clamp, NaN is rejected.

    The offset code is the number of bin edges <= v. Every edge lies within
    dnl_max bin of its ideal place, so with u = (v + R/2)/dx the code is in
    (u - 1 - dnl_max, u + dnl_max]; for dnl_max < 1/2 that holds only
    floor(u - 1/2) and the code above it, and one comparison with the edge
    above the guess settles it. The guess's rounding error (about 1e-8 bin
    at 24 bits) stays far inside the 1/2 - dnl_max of room while dnl_max <=
    ONE_STEP_DNL; a wider DNL bound searches the edges instead.
    """
    v = np.asarray(volts, dtype=np.float64)
    flat = v.reshape(-1)
    edges = _padded_edges(spec)
    half = spec.range_v / 2
    idx = np.empty(flat.size, dtype=np.int32)
    clamped = 0
    for start in range(0, flat.size, QUANTIZE_CHUNK):
        x = flat[start:start + QUANTIZE_CHUNK]
        lo, hi = x.min(), x.max()  # the minimum of values with a NaN is NaN
        if np.isnan(lo):
            raise ValueError("NaN voltage cannot be quantized")
        inside = x
        if lo < -half or hi >= half:
            clamped += int(np.count_nonzero(x < -half) + np.count_nonzero(x >= half))
            inside = np.clip(x, -half, np.nextafter(half, 0.0))
        if spec.dnl_max > ONE_STEP_DNL:
            k = np.searchsorted(edges[1:-1], x, side="right")
        else:
            guess = inside + (half - spec.bin_width / 2)
            guess *= 1 / spec.bin_width
            k = guess.astype(np.intp)  # guess >= -1/2, so truncation is the floor or 0
            k += x >= edges[1:].take(k)
        np.subtract(k, 1 << (spec.bits - 1), out=idx[start:start + x.size], casting="unsafe")
    return CodeBlock(codes=idx.reshape(v.shape), spec=spec, clamped=clamped)
