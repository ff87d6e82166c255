"""triqrng: tri-type quantum RNG post-processing stack.

A simulated dual-quadrature homodyne entropy source drives min-entropy
certification and three extraction pipelines (uniform, Gaussian,
Rayleigh), with statistical validation, a streaming CLI, and a local
bit-serving HTTP endpoint.
"""

from .adc import AdcSpec, CodeBlock, dequantize, dnl_profile, quantize, quantize_channel
from .bits import BitBlock, codes_to_bits
from .config import ConfigError, PipelineConfig, default_config, load_config, write_config
from .entropy import (
    EntropyReport,
    conditional_variance,
    effective_photon_number,
    extractable_length,
    min_entropy_iid,
    min_entropy_nonlinear,
    solve_g_star,
)
from .gaussian import HADAMARD, mix_pools, msb_truncate, output_precision
from .pipeline import Pipeline, bench, certify, provision_seed, run_pipeline
from .rayleigh import phase_uniform, rayleigh_raw, savitzky_golay
from .service import RandomService, serve
from .source import (
    NoiseModel,
    QuadratureFrame,
    lo_power_sweep,
    simulate_quadratures,
)
from .stats import GofReport, bit_tests, chi2_test, ks_test
from .toeplitz import (
    ToeplitzExtractor,
    ToeplitzSeed,
    dodis_extract,
    is_admissible,
    seed_chain,
    toeplitz_extract,
)

__version__ = "0.1.0"
