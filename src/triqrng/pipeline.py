"""Streaming orchestration: source -> ADC -> certification -> extractors.

All three output types derive from one simulated I/Q stream; selecting an
output type is pure routing and never changes how many raw samples are
consumed. Uniform extraction runs per 1536-bit block (96 samples x 16
bits per channel), Gaussian extraction per filled pool, Rayleigh values
per sample. I and Q blocks interleave alternately (I first) in the merged
uniform output. The uniform stream is certified from its own extracted
codes over a trailing window (see Pipeline), and fails closed.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .adc import AdcSpec, CodeBlock, quantize_channel
from .bits import codes_to_bits
from .config import PipelineConfig
from .entropy import (
    EntropyReport,
    LagWindow,
    conditional_variance,
    effective_photon_number,
    extractable_length,
    min_entropy_nonlinear,
    solve_g_star,
)
from .gaussian import encode_gaussian, mix_pools, msb_truncate, output_precision, precision_from_report
from .rayleigh import encode_rayleigh, rayleigh_raw, savitzky_golay
from .source import NoiseModel, simulate_channels, simulate_quadratures
from .toeplitz import ToeplitzExtractor, ToeplitzSeed, next_admissible, seed_chain

log = logging.getLogger(__name__)

BATCH_BLOCKS = 512  # per-channel blocks per batch of run_pipeline and bench; the service's batch is at least this
OUTPUT_TYPES = ("uniform", "gaussian", "rayleigh")
SEED_FRAME = 4096  # samples per simulated frame drawn for the Toeplitz seed
PREFETCH = 2  # stream chunks queued on a Pipeline's source worker
CodeRecord = tuple[np.ndarray, np.ndarray]  # one digitized record: (I codes, Q codes)


class StartupError(RuntimeError):
    """Configuration rejected at pipeline startup."""


def channel_report(
    channel: str,
    window: LagWindow,
    background: np.ndarray,
    config: PipelineConfig,
) -> EntropyReport:
    """Certify one channel from the lag window of its ADC codes.

    The quantum-only lags are the window's autocovariance lags minus the
    LO-off `background` lags, both in codes^2 and scaled to V^2 here; their
    prediction error at the configured order is the conditional quantum
    variance feeding the effective photon number. Lags that are not
    positive definite raise ValueError.
    """
    spec = config.adc_spec()
    acov = window.autocovariance()
    volts2 = spec.bin_width**2  # volts are (code + 0.5) * bin_width; centred lags drop the offset
    sigma_m2 = float(acov[0]) * volts2
    sigma_qc2 = conditional_variance((acov - background) * volts2, config.prediction_order)
    n_eff = effective_photon_number(sigma_m2, sigma_qc2)
    h_sample = min_entropy_nonlinear(n_eff, spec)
    h_sample = min(max(h_sample, 0.0), float(spec.bits))
    h_bit = h_sample / spec.bits
    return EntropyReport(
        channel=channel,
        h_min_per_sample=h_sample,
        h_min_per_bit=h_bit,
        g_star=solve_g_star(spec.bin_width, spec.range_v / 2),
        n_eff=n_eff,
        sigma_m2=sigma_m2,
        sigma_qc2=sigma_qc2,
        epsilon=config.epsilon,
        extractable_fraction=extractable_length(config.block_n, h_bit, config.epsilon) / config.block_n,
        adc_bits=spec.bits,
        dnl_max=spec.dnl_max,
        prediction_order=config.prediction_order,
        n_samples=window.n_samples,
    )


def _lag_windows(config: PipelineConfig, model: NoiseModel, prng_seed: int,
                 record: CodeRecord | None) -> dict[str, LagWindow]:
    """Per-channel trailing lag windows of `certify_samples`, opened on the
    I and Q codes of `record`, or of `certify_samples` samples simulated
    from `model` at `prng_seed` when `record` is None.

    A simulated record is made one channel at a time: a channel is
    simulated, digitized and fed, and its codes and then its voltages are
    released, before the next one is simulated, so startup never holds
    both channels' voltages.
    """
    spec = config.adc_spec()
    channels = iter(record) if record is not None else simulate_channels(model, config.certify_samples, prng_seed)
    windows = {}
    for channel in "iq":  # not zip: its reused result tuple would keep one channel alive while the next is made
        windows[channel] = LagWindow(config.prediction_order, config.certify_samples)
        data = next(channels)
        windows[channel].feed(data if record is not None else quantize_channel(data, spec).codes)
        del data
    return windows


def _startup_windows(config: PipelineConfig, record: CodeRecord | None = None,
                     background: CodeRecord | None = None) -> tuple[dict[str, LagWindow], dict[str, np.ndarray]]:
    """The startup record's lag windows and the LO-off background's lags, per channel.

    A record not given is simulated from the config: the startup record at
    `prng_seed`, the background with the LO off at `prng_seed + 10_000`.
    """
    bg_model = replace(config.noise_model(), sigma_q2=0.0)
    bg_windows = _lag_windows(config, bg_model, config.prng_seed + 10_000, background)
    windows = _lag_windows(config, config.noise_model(), config.prng_seed, record)
    return windows, {channel: window.autocovariance() for channel, window in bg_windows.items()}


def certify(config: PipelineConfig, record: CodeRecord | None = None,
            background: CodeRecord | None = None) -> dict[str, EntropyReport]:
    """Certify both channels of a startup record against its LO-off background.

    A record not given is simulated as `Pipeline` simulates it at startup.
    """
    windows, background_lags = _startup_windows(config, record, background)
    return {ch: channel_report(ch, w, background_lags[ch], config) for ch, w in windows.items()}


def provision_seed(config: PipelineConfig) -> ToeplitzSeed:
    """The Toeplitz seed, a pure function of the config, derived at every start.

    Frame k is `SEED_FRAME` samples simulated at `prng_seed + 900_000 + k`;
    its I-channel codes, serialized by `codes_to_bits`, are the raw bits.
    Exactly the ceil(2p / (SEED_FRAME * adc_bits)) frames that `seed_chain`
    draws its two p-bit sources from are simulated.
    """
    spec = config.adc_spec()
    model = config.noise_model()
    p = next_admissible(config.block_n - 1)
    bits = []
    for k in range(-(-2 * p // (SEED_FRAME * spec.bits))):
        volts_i = next(simulate_channels(model, SEED_FRAME, config.prng_seed + 900_000 + k))
        bits.append(codes_to_bits(quantize_channel(volts_i, spec).codes, spec.bits).bits())
    return seed_chain(np.concatenate(bits), config.block_n, config.block_m)


def rayleigh_amplitudes(i_vals: np.ndarray, q_vals: np.ndarray, window: int, order: int) -> np.ndarray:
    """The Rayleigh stage: hypot, Savitzky-Golay smoothing, clamp at 0, float32.

    The smoother refits a cubic at each batch edge, which can overshoot
    below zero next to a small amplitude; an amplitude is never negative,
    so the smoothed values are clamped at 0.
    """
    smoothed = savitzky_golay(rayleigh_raw(i_vals, q_vals), window, order)
    return np.maximum(smoothed, 0.0).astype(np.float32)


def _chunk_codes(model: NoiseModel, spec: AdcSpec, prng_seed: int, count: int) -> tuple[CodeBlock, CodeBlock]:
    """One stream chunk's I and Q codes, a pure function of the arguments.

    It runs on a Pipeline's source worker, so it holds no reference to the
    Pipeline, and it looks `simulate_quadratures` and `quantize_channel` up
    as this module's globals at each call.
    """
    frame = simulate_quadratures(model, count, prng_seed)
    return quantize_channel(frame.i_samples, spec), quantize_channel(frame.q_samples, spec)


@dataclass
class BlockBatch:
    """One batch of per-channel outputs from the streaming engine."""

    uniform: bytes                      # interleaved I/Q extracted blocks, packed
    gaussian_i: np.ndarray              # fixed-point codes (may be empty until a pool fills)
    gaussian_q: np.ndarray
    rayleigh: np.ndarray                # float32 denoised-raw amplitudes

    def wire(self, output: str, n_out: int) -> bytes:
        """One output type of this batch in its wire format, empty when it has none.

        Uniform bytes are the packed bits, Gaussian codes of `n_out` bits
        are I/Q-interleaved and left-justified in int16 LE, and Rayleigh
        amplitudes are float32 LE.
        """
        if output == "uniform":
            return self.uniform
        if output == "gaussian":
            return encode_gaussian(self.gaussian_i, self.gaussian_q, n_out)
        return encode_rayleigh(self.rayleigh)


class Pipeline:
    """Block-streaming engine bound to one config.

    Startup simulates an LO-off background record, whose autocovariance
    lags are kept, and a startup record, which opens the per-channel
    trailing lag windows of `certify_samples` samples; every batch that
    asks for uniform output, or that comes once uniform output has stopped
    while Gaussian output runs, feeds its I/Q codes to the same windows.
    One routine closes and judges them: at startup, where a worst-channel
    budget below `block_m` or a window the bound cannot be evaluated on
    (lags minus background not positive definite) raises StartupError
    before the Toeplitz seed is derived from the config, and before each
    fed batch's outputs are returned. A stream window whose budget falls
    below `block_m` stops uniform output for good, and one whose precision
    rule gives fewer Gaussian input bits than startup stops Gaussian
    output for good; each stopped type is named in `stopped` with the
    reason. A stream report is appended to `reports` when at least
    `recertify_every` blocks have passed since the last one, and always
    when it stops an output.

    Raw codes are made two batches ahead: the batch that takes chunk k
    tops a queue of `PREFETCH` chunks back up with chunks k+1 and k+2, at
    its own sample count, on a worker thread started by the first batch,
    which simulates and digitizes them while batches are certified and
    extracted. With a second chunk queued the worker goes straight from one
    chunk to the next instead of sleeping until the next batch wakes it.
    The head chunk is used only when the model, ADC spec, seed and count it
    was made from are the ones the next batch needs; otherwise every queued
    chunk is waited for and dropped. So the bytes are those of making every
    chunk in line. Memory holds two more chunks. `source_wait_s` adds up
    the seconds batches spent waiting for the worker. A dropped Pipeline
    ends its worker by reference counting.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.spec = config.adc_spec()
        self.model = config.noise_model()
        self.samples_per_block = config.block_n // self.spec.bits
        self.raw_samples_consumed = 0
        self.blocks_since_report = 0
        self.stopped: dict[str, str] = {}
        self._chunk_index = 0
        # the worker thread starts with the first submitted chunk, not here
        self._source = ThreadPoolExecutor(max_workers=1, thread_name_prefix="triqrng-source")
        self._ahead: deque[tuple[tuple, Future]] = deque()  # (inputs, future codes) of the next chunks
        self.source_wait_s = 0.0

        self._windows, self._background = _startup_windows(config)
        self.reports: list[dict[str, EntropyReport]] = []
        self._close_windows()

        self.seed = provision_seed(config)
        self._extractor = ToeplitzExtractor(self.seed)
        self.n_out = output_precision(self._m_bits)
        self._pool_buf: dict[str, np.ndarray] = {
            "i": np.zeros(0, dtype=np.int64),
            "q": np.zeros(0, dtype=np.int64),
        }

    # -- certification -----------------------------------------------------

    def _stop_output(self, output: str, reason: str) -> None:
        if output not in self.stopped:
            self.stopped[output] = reason
            log.warning("%s output stopped: %s", output, reason)

    def _close_windows(self) -> None:
        """Certify the trailing windows as they stand and judge the reports.

        The first close is the startup certification: it fixes the Gaussian
        input precision, and any failure raises StartupError. A later close
        stops each output it no longer covers.
        """
        cfg = self.config
        startup = not self.reports
        reports = None
        failures: dict[str, str] = {}
        try:
            reports = {ch: channel_report(ch, w, self._background[ch], cfg) for ch, w in self._windows.items()}
        except ValueError as err:  # a window the bound cannot be evaluated on certifies nothing
            failures = dict.fromkeys(("uniform", "gaussian"), f"certification failed: {err}")
        else:
            worst = min(reports.values(), key=lambda r: r.h_min_per_bit)
            budget = extractable_length(cfg.block_n, worst.h_min_per_bit, cfg.epsilon)
            m_bits = precision_from_report(worst)
            if startup:
                self._m_bits = m_bits
            if budget < cfg.block_m:
                failures["uniform"] = (f"window leftover-hash budget {budget} < block_m={cfg.block_m} "
                                       f"(h_min_per_bit={worst.h_min_per_bit:.4f}, epsilon={cfg.epsilon:g})")
            if m_bits < self._m_bits:
                failures["gaussian"] = (f"window gives {m_bits} Gaussian input bits, "
                                        f"{self._m_bits} certified at startup")
        if startup:
            if failures:
                raise StartupError("startup " + "; ".join(dict.fromkeys(failures.values())))
            self.reports.append(reports)
            return
        stopped_before = len(self.stopped)
        for output, reason in failures.items():
            self._stop_output(output, f"stream {reason}")
        logged = len(self.stopped) > stopped_before or self.blocks_since_report >= cfg.recertify_every
        if reports is not None and logged:
            self.reports.append(reports)
            self.blocks_since_report = 0

    # -- streaming ---------------------------------------------------------

    def _chunk_inputs(self, index: int, count: int) -> tuple:
        """The `_chunk_codes` arguments of stream chunk `index`."""
        return (self.model, self.spec, self.config.prng_seed + 1_000_000 + index, count)

    def _next_codes(self, n_blocks: int) -> tuple[CodeBlock, CodeBlock]:
        """The next chunk's codes, with the queue topped back up on the worker.

        The head of the queue is used only if it was made from exactly the
        inputs this call needs; otherwise every queued chunk is waited for
        and dropped with any error it raised, and the chunk is made here. A
        worker error is raised by the call whose chunk it was, which then
        consumes nothing.
        """
        count = n_blocks * self.samples_per_block
        inputs = self._chunk_inputs(self._chunk_index, count)
        queue = self._ahead
        fresh = bool(queue) and queue[0][0] == inputs
        t0 = time.perf_counter()
        wait([queue[0][1]] if fresh else [future for _, future in queue])
        self.source_wait_s += time.perf_counter() - t0
        if fresh:
            codes = queue.popleft()[1].result()
        else:
            queue.clear()
            codes = _chunk_codes(*inputs)
        self._chunk_index += 1
        self.raw_samples_consumed += 2 * count
        for index in range(self._chunk_index + len(queue), self._chunk_index + PREFETCH):
            following = self._chunk_inputs(index, count)
            queue.append((following, self._source.submit(_chunk_codes, *following)))
        return codes

    def _extract_uniform(self, codes_i: CodeBlock, codes_q: CodeBlock, n_blocks: int) -> bytes:
        # rows in (block, channel) order are already the I-first interleave
        codes = np.stack([codes_i.codes.reshape(n_blocks, -1), codes_q.codes.reshape(n_blocks, -1)], axis=1)
        rows = codes_to_bits(codes, self.spec.bits).packed.reshape(2 * n_blocks, self.config.block_n // 8)
        return self._extractor.extract_batch(rows).tobytes()

    def _gaussian_from_pools(self, channel: str, truncated: np.ndarray, passes: int) -> np.ndarray:
        buf = np.concatenate([self._pool_buf[channel], truncated])
        whole = buf.size - buf.size % self.config.pool_size
        self._pool_buf[channel] = buf[whole:]
        return mix_pools(buf[:whole], self.config.pool_size, passes, self.n_out)

    def process_blocks(
        self,
        n_blocks: int,
        want: frozenset[str] | set[str] = frozenset(OUTPUT_TYPES),
    ) -> BlockBatch:
        """Consume n_blocks worth of raw samples per channel and extract.

        Raw consumption is identical whatever `want` selects; the argument
        only routes which outputs are materialized. A type in `stopped`
        yields no output. `n_blocks` below 1 or an unknown name in `want`
        raises ValueError before any raw samples are consumed.
        """
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be at least 1, got {n_blocks}")
        unknown = set(want) - set(OUTPUT_TYPES)
        if unknown:
            raise ValueError(f"want names unknown output types {sorted(unknown)}, not in {OUTPUT_TYPES}")
        cfg = self.config
        codes_i, codes_q = self._next_codes(n_blocks)
        self.blocks_since_report += n_blocks

        uniform = b""
        gauss_i = np.zeros(0, dtype=np.int64)
        gauss_q = np.zeros(0, dtype=np.int64)
        ray = np.zeros(0, dtype=np.float32)
        # windows keep checking Gaussian precision after uniform output stops
        if "uniform" in want or ("uniform" in self.stopped and "gaussian" not in self.stopped):
            for channel, codes in (("i", codes_i), ("q", codes_q)):
                self._windows[channel].feed(codes.codes)
            self._close_windows()
        if "uniform" in want and "uniform" not in self.stopped:
            uniform = self._extract_uniform(codes_i, codes_q, n_blocks)
        gaussian = "gaussian" in want and "gaussian" not in self.stopped
        if gaussian or "rayleigh" in want:
            trunc_i = msb_truncate(codes_i, self._m_bits)
            trunc_q = msb_truncate(codes_q, self._m_bits)
        if gaussian:
            gauss_i = self._gaussian_from_pools("i", trunc_i, cfg.passes_i)
            gauss_q = self._gaussian_from_pools("q", trunc_q, cfg.passes_q)
        if "rayleigh" in want:
            ray = rayleigh_amplitudes(trunc_i + 0.5, trunc_q + 0.5, cfg.sg_window, cfg.sg_order)
        return BlockBatch(
            uniform=uniform,
            gaussian_i=gauss_i,
            gaussian_q=gauss_q,
            rayleigh=ray,
        )


@dataclass
class PipelineRun(BlockBatch):
    """The concatenated batches of one `run_pipeline` call, with the run's reports."""

    reports: list[dict[str, EntropyReport]]
    raw_samples_consumed: int
    n_out: int


def run_pipeline(
    config: PipelineConfig,
    duration_blocks: int,
    want: set[str] = frozenset(OUTPUT_TYPES),
    batch_blocks: int = BATCH_BLOCKS,
) -> PipelineRun:
    """Run the streaming engine for a fixed number of per-channel blocks."""
    if duration_blocks <= 0:
        raise ValueError("duration_blocks must be positive")
    pipe = Pipeline(config)
    uniform = bytearray()
    gi, gq, ray = [], [], []
    remaining = duration_blocks
    while remaining > 0:
        n = min(batch_blocks, remaining)
        batch = pipe.process_blocks(n, want=want)
        uniform += batch.uniform
        gi.append(batch.gaussian_i)
        gq.append(batch.gaussian_q)
        ray.append(batch.rayleigh)
        remaining -= n
    return PipelineRun(
        uniform=bytes(uniform),
        gaussian_i=np.concatenate(gi),
        gaussian_q=np.concatenate(gq),
        rayleigh=np.concatenate(ray),
        reports=pipe.reports,
        raw_samples_consumed=pipe.raw_samples_consumed,
        n_out=pipe.n_out,
    )


# ---------------------------------------------------------------------------
# benchmark

def bench(config: PipelineConfig, seconds: float = 2.0) -> dict:
    """Production-path throughput with warm-up excluded, as a JSON-safe dict.

    Times `process_blocks(BATCH_BLOCKS)` on all three types, the batch
    that `run_pipeline` and the service fill make; every batch closes its
    own certification window. Pipeline startup is not timed.
    `source_wait_share` is the share of the timed seconds that batches
    spent waiting for the source worker.
    """
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    pipe = Pipeline(config)
    t_end = time.perf_counter() + seconds
    blocks = 0
    uniform_bytes = 0
    gauss_values = 0
    t0 = time.perf_counter()
    while time.perf_counter() < t_end:
        b = pipe.process_blocks(BATCH_BLOCKS)
        uniform_bytes += len(b.uniform)
        gauss_values += b.gaussian_i.size + b.gaussian_q.size
        blocks += BATCH_BLOCKS
    elapsed = time.perf_counter() - t0
    raw_samples = blocks * pipe.samples_per_block * 2
    return {
        "seconds": elapsed,
        "source_wait_share": pipe.source_wait_s / elapsed,
        "blocks": blocks,
        "raw_samples_per_s": raw_samples / elapsed,
        "raw_bits_per_s": raw_samples * pipe.spec.bits / elapsed,
        "uniform_bits_per_s": 8 * uniform_bytes / elapsed,
        "gaussian_values_per_s": gauss_values / elapsed,
    }
