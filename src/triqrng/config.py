"""Pipeline configuration: dataclass, INI-file round trip, shipped preset.

The config file is plain INI (configparser) with sections [source],
[adc], [extraction], [service] and [pipeline]; see the README for the key
reference. load_config raises ConfigError naming the key for an unknown
section or key, a key in the wrong section, a value of the wrong type and
a value the pipeline would refuse later. The shipped default is a tuned
operating point for a 16-bit, 128 mVpp digitizer whose certified
min-entropy lands near 0.71 bits/bit, high enough that the fixed
1536 -> 1024 block geometry clears the leftover-hash budget at
epsilon = 2^-32.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .adc import AdcSpec
from .entropy import DEFAULT_EPSILON, DEFAULT_PREDICTION_ORDER
from .gaussian import MAX_PASSES, K
from .source import NoiseModel, normalized_taps

# Tuned reference operating point. sigma_q2 = responsivity * lo_power_mw
# sits on the linear LO slope at 4.13 mW/diode; the excess fraction and the
# 3-tap bandwidth filter set the conditional-variance ratio that the
# certification turns into n_eff.
PRESET_TAPS = normalized_taps([1.0, 0.97, 0.40])
PRESET_SIGMA_Q2 = 5.324327e-06
PRESET_SIGMA_E2 = 3.258742e-06
PRESET_LO_POWER_MW = 4.13
PRESET_RESPONSIVITY = PRESET_SIGMA_Q2 / PRESET_LO_POWER_MW


class ConfigError(ValueError):
    """A config the pipeline refuses, or a file that cannot be loaded; the message names the key."""


@dataclass
class PipelineConfig:
    # [source]
    sigma_e2: float = PRESET_SIGMA_E2
    filter_taps: tuple[float, ...] = PRESET_TAPS
    lo_power_mw: float = PRESET_LO_POWER_MW
    responsivity: float = PRESET_RESPONSIVITY
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
    pool_size: int = 65536
    passes_i: int = 5
    passes_q: int = 4
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
    prediction_order: int = DEFAULT_PREDICTION_ORDER

    def noise_model(self) -> NoiseModel:
        """The source model; its quantum variance is responsivity * lo_power_mw."""
        for name in ("lo_power_mw", "responsivity"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        return NoiseModel(self.responsivity * self.lo_power_mw, self.sigma_e2, self.filter_taps)

    def adc_spec(self) -> AdcSpec:
        return AdcSpec(
            bits=self.adc_bits,
            range_v=self.adc_range_v,
            dnl_max=self.adc_dnl_max,
            dnl_seed=self.adc_dnl_seed,
        )

    def __post_init__(self) -> None:
        self.filter_taps = tuple(map(float, self.filter_taps))  # one form, whatever sequence was given
        for f in fields(self):  # a NaN would pass every range check below
            value = getattr(self, f.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        try:  # the source and digitizer rules run here too, so a bad file fails at load
            self.noise_model()
        except ValueError as err:
            raise ConfigError(f"[source] {err}") from err
        try:
            self.adc_spec()
        except ValueError as err:
            raise ConfigError(f"[adc] {err}") from err
        if self.block_m > self.block_n:
            raise ConfigError("block_m must be <= block_n")
        if self.block_n % self.adc_bits:
            raise ConfigError("block_n must be a multiple of the ADC bit depth")
        if self.block_n % 8 or self.block_m % 8:
            raise ConfigError("block_n and block_m must be multiples of 8 (packed rows)")
        if self.pool_size < K or self.pool_size & (self.pool_size - 1):
            raise ConfigError(f"pool_size must be a power of two >= {K}")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must be in (0, 1)")
        if self.sg_window < 1 or self.sg_window % 2 == 0:
            raise ConfigError("sg_window must be a positive odd integer")
        if not 0 <= self.sg_order < self.sg_window:
            raise ConfigError("sg_order must satisfy 0 <= sg_order < sg_window")
        if self.sg_window > self.block_n // self.adc_bits:  # the shortest Rayleigh batch is one block
            raise ConfigError(f"[extraction] sg_window must be <= the {self.block_n // self.adc_bits} "
                              "samples of one block")
        if self.passes_i < 1 or self.passes_q < 1:
            raise ConfigError("passes_i and passes_q must be >= 1")
        for name in ("passes_i", "passes_q"):
            if getattr(self, name) > MAX_PASSES:
                raise ConfigError(f"[extraction] {name} must be <= {MAX_PASSES}, where the pool sums stay exact")
        if self.recertify_every < 1:
            raise ConfigError("recertify_every must be >= 1")
        if not 0 < self.gate_alpha < 1:
            raise ConfigError("gate_alpha must be in (0, 1)")
        if self.max_request_bytes < 1:
            raise ConfigError("max_request_bytes must be >= 1")
        if self.max_request_bytes > self.buffer_bytes:
            raise ConfigError("max_request_bytes must be <= buffer_bytes (a larger request is never served)")
        if not 0 <= self.prediction_order < self.certify_samples:
            raise ConfigError("prediction_order must be >= 0 and below certify_samples")


# [adc] keys set the adc_<key> fields
_SECTIONS = {
    "source": ("sigma_e2", "filter_taps", "lo_power_mw", "responsivity", "prng_seed"),
    "adc": ("bits", "range_v", "dnl_max", "dnl_seed"),
    "extraction": ("block_n", "block_m", "epsilon", "pool_size", "passes_i", "passes_q",
                   "sg_window", "sg_order", "gof_samples"),
    "service": ("listen", "max_request_bytes", "buffer_bytes", "request_timeout_s", "gate_alpha"),
    "pipeline": ("recertify_every", "certify_samples", "prediction_order"),
}
# INI key -> (its section, the PipelineConfig field it sets)
_FIELD_OF = {key: (section, "adc_" + key if section == "adc" else key)
             for section, keys in _SECTIONS.items() for key in keys}
_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}


def _parse(field: str, raw: str):
    kind = type(_DEFAULTS[field])
    if kind is tuple:
        return tuple(float(t) for t in raw.split(","))
    return kind(raw)  # int() refuses "7.9" and is exact above 2^53


def write_config(config: PipelineConfig, path: str) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        cp[section] = {}
        for key in keys:
            value = getattr(config, _FIELD_OF[key][1])
            cp[section][key] = ", ".join(map(repr, value)) if key == "filter_taps" else str(value)
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path: str) -> PipelineConfig:
    """Read an INI file strictly (see the module docstring); keys it leaves out keep their defaults."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err
    if cp.defaults():
        raise ConfigError(f"[{cp.default_section}] unknown section")
    kwargs = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}] unknown section")
        for key, raw in cp[section].items():
            if key not in _FIELD_OF:
                raise ConfigError(f"[{section}] {key}: unknown key")
            home, field = _FIELD_OF[key]
            if home != section:
                raise ConfigError(f"[{section}] {key}: belongs in [{home}]")
            try:
                kwargs[field] = _parse(field, raw)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err
    return PipelineConfig(**kwargs)
