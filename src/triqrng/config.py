"""Pipeline configuration: dataclass, INI-file round trip, shipped preset.

The config file is plain INI (configparser) with sections [source],
[adc], [extraction], [service] and [pipeline]; see the README for the key
reference. The shipped default is a tuned operating point for a 16-bit,
128 mVpp digitizer whose certified min-entropy lands near 0.71 bits/bit,
high enough that the fixed 1536 -> 1024 block geometry clears the
leftover-hash budget at epsilon = 2^-32.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .adc import AdcSpec
from .entropy import DEFAULT_EPSILON, DEFAULT_PREDICTION_ORDER
from .source import NoiseModel, normalized_taps

# Tuned reference operating point. sigma_q2 sits on the linear LO slope at
# 4.13 mW/diode; the excess fraction and the 3-tap bandwidth filter set the
# conditional-variance ratio that the certification turns into n_eff.
PRESET_TAPS = normalized_taps([1.0, 0.97, 0.40])
PRESET_SIGMA_Q2 = 5.324327e-06
PRESET_SIGMA_E2 = 3.258742e-06
PRESET_LO_POWER_MW = 4.13
PRESET_RESPONSIVITY = PRESET_SIGMA_Q2 / PRESET_LO_POWER_MW


@dataclass
class PipelineConfig:
    # [source]
    sigma_q2: float = PRESET_SIGMA_Q2
    sigma_e2: float = PRESET_SIGMA_E2
    filter_taps: tuple[float, ...] = PRESET_TAPS
    lo_power_mw: float = PRESET_LO_POWER_MW
    responsivity: float = PRESET_RESPONSIVITY
    sample_rate_hz: float = 2.0e9  # labeling only; no fidelity claim
    prng_seed: int = 7
    # [adc]
    adc_bits: int = 16
    adc_range_v: float = 0.128
    adc_dnl_max: float = 0.1
    adc_dnl_seed: int = 3
    # [extraction]
    block_n: int = 1536
    block_m: int = 1024
    epsilon: float = DEFAULT_EPSILON
    k: int = 4
    pool_size: int = 65536
    passes_i: int = 5
    passes_q: int = 4
    matrix: tuple[tuple[float, ...], ...] | None = None  # inline k x k; None = scaled Hadamard
    output_grid_sigma: float = 5.0
    sg_window: int = 31
    sg_order: int = 3
    gof_samples: int = 100_000
    # [service]
    listen: str = "127.0.0.1:0"
    max_request_bytes: int = 4 * 1024 * 1024
    buffer_bytes: int = 8 * 1024 * 1024
    request_timeout_s: float = 30.0
    gate_alpha: float = 0.001
    # [pipeline]
    recertify_every: int = 4096
    certify_samples: int = 1 << 20
    psd_segment: int = 4096
    prediction_order: int = DEFAULT_PREDICTION_ORDER

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            sigma_q2=self.sigma_q2,
            sigma_e2=self.sigma_e2,
            filter_taps=tuple(self.filter_taps),
            lo_power_mw=self.lo_power_mw,
            responsivity=self.responsivity,
        )

    def adc_spec(self) -> AdcSpec:
        return AdcSpec(
            bits=self.adc_bits,
            range_v=self.adc_range_v,
            dnl_max=self.adc_dnl_max,
            dnl_seed=self.adc_dnl_seed,
        )

    def __post_init__(self) -> None:
        if self.block_m > self.block_n:
            raise ValueError("block_m must be <= block_n")
        if self.block_n % self.adc_bits:
            raise ValueError("block_n must be a multiple of the ADC bit depth")
        if self.block_n % 8 or self.block_m % 8:
            raise ValueError("block_n and block_m must be multiples of 8 (packed rows)")
        if self.pool_size % self.k:
            raise ValueError("pool_size must be divisible by k")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.sg_window < 1 or self.sg_window % 2 == 0:
            raise ValueError("sg_window must be a positive odd integer")
        if not 0 <= self.sg_order < self.sg_window:
            raise ValueError("sg_order must satisfy 0 <= sg_order < sg_window")
        if self.passes_i < 1 or self.passes_q < 1:
            raise ValueError("passes_i and passes_q must be >= 1")
        if self.recertify_every < 1:
            raise ValueError("recertify_every must be >= 1")
        if self.max_request_bytes > self.buffer_bytes:
            raise ValueError("max_request_bytes must be <= buffer_bytes (a larger request is never served)")
        if self.psd_segment < 8 or self.psd_segment & (self.psd_segment - 1):
            raise ValueError("psd_segment must be a power of two >= 8")
        if self.certify_samples < self.psd_segment:
            raise ValueError("certify_samples must be >= psd_segment")
        if not 0 <= self.prediction_order <= self.psd_segment // 2:
            raise ValueError("prediction_order must be in [0, psd_segment // 2]")


_SECTIONS = {
    "source": ("sigma_q2", "sigma_e2", "filter_taps", "lo_power_mw", "responsivity",
               "sample_rate_hz", "prng_seed"),
    "adc": ("adc_bits", "adc_range_v", "adc_dnl_max", "adc_dnl_seed"),
    "extraction": (
        "block_n", "block_m", "epsilon", "k", "pool_size", "passes_i", "passes_q",
        "matrix", "output_grid_sigma", "sg_window", "sg_order", "gof_samples",
    ),
    "service": (
        "listen", "max_request_bytes", "buffer_bytes", "request_timeout_s", "gate_alpha",
    ),
    "pipeline": ("recertify_every", "certify_samples", "psd_segment", "prediction_order"),
}

_INI_KEY = {
    "adc_bits": "bits", "adc_range_v": "range_v",
    "adc_dnl_max": "dnl_max", "adc_dnl_seed": "dnl_seed",
}


def write_config(config: PipelineConfig, path: str) -> None:
    cp = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        cp[section] = {}
        for key in keys:
            value = getattr(config, key)
            if key == "filter_taps":
                value = ", ".join(repr(t) for t in value)
            elif key == "matrix":
                if value is None:
                    continue
                value = "; ".join(", ".join(repr(x) for x in row) for row in value)
            cp[section][_INI_KEY.get(key, key)] = str(value)
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path: str) -> PipelineConfig:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    kwargs = {}
    defaults = PipelineConfig()
    for section, keys in _SECTIONS.items():
        if section not in cp:
            continue
        for key in keys:
            ini_key = _INI_KEY.get(key, key)
            if ini_key not in cp[section]:
                continue
            raw = cp[section][ini_key]
            if key == "filter_taps":
                kwargs[key] = tuple(float(t) for t in raw.split(","))
            elif key == "matrix":
                kwargs[key] = tuple(
                    tuple(float(x) for x in row.split(",")) for row in raw.split(";")
                )
            elif key == "listen":
                kwargs[key] = raw.strip()
            else:
                default = getattr(defaults, key)
                kwargs[key] = type(default)(raw) if not isinstance(default, int) else int(float(raw))
    return PipelineConfig(**kwargs)


def default_config() -> PipelineConfig:
    return PipelineConfig()
