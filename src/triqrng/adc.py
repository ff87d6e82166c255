"""Digitizer model: voltage-to-code mapping with bounded DNL.

An N-bit ADC, 4 <= N <= 16, has offset-binary codes internally and
exposes them as signed two's-complement integers in
[-2^(N-1), 2^(N-1)-1], held as int16 in memory and in code files.
Differential nonlinearity is modeled as deterministic bounded uniform
jitter on the bin edges; dnl_max <= MAX_DNL keeps the edges strictly
increasing and leaves the quantizer's one-step guess room to spare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

MAX_DNL = 0.45  # widest DNL bound: quantize_channel's one-step guess keeps 0.05 bin of room


@dataclass(frozen=True)
class AdcSpec:
    """Digitizer geometry: bit depth, full-scale span, DNL bound."""

    bits: int = 16
    range_v: float = 0.128  # full-scale peak-to-peak span
    dnl_max: float = 0.0    # max edge deviation in units of the ideal bin width
    dnl_seed: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.bits <= 16:
            raise ValueError("bits must be in [4, 16]: codes are int16")
        if self.range_v <= 0:
            raise ValueError("range_v must be positive")
        if not 0 <= self.dnl_max <= MAX_DNL:
            raise ValueError(f"dnl_max must be in [0, {MAX_DNL}]")

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
        """Write as little-endian signed 16-bit raw."""
        self.codes.astype("<i2").tofile(path)

    @classmethod
    def fromfile(cls, path: str, spec: AdcSpec) -> CodeBlock:
        """Read a tofile() record; a partial code or codes outside spec's range are rejected."""
        data = Path(path).read_bytes()
        if len(data) % 2:
            raise ValueError(f"{path}: {len(data)} bytes is not a whole number of int16 codes")
        return cls(codes=np.frombuffer(data, dtype="<i2"), spec=spec)


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
def _upper_edges(spec: AdcSpec) -> np.ndarray:
    """Upper edge of every offset bin: _edges, then a NaN sentinel for the top
    bin that no comparison ever passes."""
    return np.append(_edges(spec), np.nan)


QUANTIZE_CHUNK = 1 << 16  # samples per pass; one pass per default channel measured fastest on the source worker


def quantize_channel(volts: np.ndarray, spec: AdcSpec) -> CodeBlock:
    """Map one voltage record to int16 codes; out-of-range values clamp, NaN is rejected.

    The offset code is the number of bin edges <= v. Every edge lies within
    dnl_max bin of its ideal place, so with u = (v + R/2)/dx the code is in
    (u - 1 - dnl_max, u + dnl_max]; for dnl_max < 1/2 that holds only
    floor(u - 1/2) and the code above it, and one comparison with the edge
    above the guess settles it. The guess's rounding error (below 1e-10 bin
    at 16 bits) stays far inside the 1/2 - MAX_DNL = 0.05 bin of room.
    """
    v = np.asarray(volts, dtype=np.float64)
    flat = v.reshape(-1)
    edges = _upper_edges(spec)
    half = spec.range_v / 2
    idx = np.empty(flat.size, dtype=np.int16)
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
        guess = inside + (half - spec.bin_width / 2)
        guess *= 1 / spec.bin_width
        k = guess.astype(np.intp)  # guess >= -1/2, so truncation is the floor or 0
        k += x >= edges.take(k)
        np.subtract(k, 1 << (spec.bits - 1), out=idx[start:start + x.size], casting="unsafe")
    return CodeBlock(codes=idx.reshape(v.shape), spec=spec, clamped=clamped)
