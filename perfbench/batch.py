"""Batch workloads: one Pipeline driven through process_blocks, as
`triqrng extract` and the service producer drive it.

uniform-recert  want={"uniform"} on the default config, so recertification
                runs every 4096 blocks; certification and Toeplitz hashing
                carry the work.
shaped-steady   want={"gaussian", "rayleigh"} with recertification pushed
                past the run, so certification happens only at set-up; the
                Gaussian pools, Rayleigh smoothing, ADC and source carry the
                work, and the uniform path is bypassed.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import replace

import numpy as np

from triqrng.config import PipelineConfig
from triqrng.pipeline import Pipeline

import checks

BATCH_BLOCKS = 512       # the batch size of the service producer and run_pipeline
WINDOW_CALLS = 8         # 4096 blocks: one recertification period, 6 Gaussian pools per channel
WARMUP_WINDOWS = 1
MIN_WINDOWS = 6
SETUP_REPEATS = 3
DIGEST_CALLS = 32        # the digest covers the output of the first 32 calls of every run
CHECK_BYTES = 1_000_000  # uniform bytes given to the bit tests and the repeat check
OP_LIMIT_S = 5.0         # a correct call slower than this still counts against ok_share

WANT = {
    "uniform-recert": frozenset({"uniform"}),
    "shaped-steady": frozenset({"gaussian", "rayleigh"}),
}


def config_for(workload: str, seed: int) -> PipelineConfig:
    config = PipelineConfig(prng_seed=seed)
    if workload == "shaped-steady":
        config = replace(config, recertify_every=1 << 40)
    return config


def _payload(batch) -> tuple[int, int]:
    """(output bits in the service's wire encoding, output values)."""
    gauss = batch.gaussian_i.size + batch.gaussian_q.size
    return 8 * len(batch.uniform) + 16 * gauss + 32 * batch.rayleigh.size, gauss + batch.rayleigh.size


def _digest_bytes(batch) -> bytes:
    return (batch.uniform + batch.gaussian_i.astype("<i8").tobytes()
            + batch.gaussian_q.astype("<i8").tobytes() + batch.rayleigh.astype("<f4").tobytes())


def _check_call(batch, pipe: Pipeline, want, n_blocks: int) -> list[str]:
    cfg = pipe.config
    bad = []
    expect_uniform = n_blocks * 2 * cfg.block_m // 8 if "uniform" in want else 0
    if len(batch.uniform) != expect_uniform:
        bad.append(f"uniform output {len(batch.uniform)} B, expected {expect_uniform}")
    if "gaussian" in want:
        half = 1 << (pipe.n_out - 1)
        for name, g in (("i", batch.gaussian_i), ("q", batch.gaussian_q)):
            if g.size % cfg.pool_size:
                bad.append(f"gaussian {name} output {g.size} is not whole pools")
            if g.size and (int(g.min()) < -half or int(g.max()) >= half):
                bad.append(f"gaussian {name} code outside {pipe.n_out} bits")
    if "rayleigh" in want:
        expect = n_blocks * pipe.samples_per_block
        if batch.rayleigh.size != expect:
            bad.append(f"rayleigh output {batch.rayleigh.size} values, expected {expect}")
        bad += checks.check_rayleigh(batch.rayleigh)
    return bad


def run_pass(workload: str, seed: int, seconds: float, setup_repeats: int, tracer=None) -> dict:
    """Set up, warm up, then time whole windows of calls for `seconds`."""
    config = config_for(workload, seed)
    want = WANT[workload]
    if tracer is not None:
        tracer.install()
    try:
        setups = []
        for _ in range(setup_repeats):
            t = time.perf_counter()
            pipe = Pipeline(config)
            setups.append(time.perf_counter() - t)

        digest = hashlib.sha256()
        uniform_head = bytearray()
        gauss_head: list[np.ndarray] = []
        failures: list[str] = []
        failed_calls = 0
        ok_calls = 0
        latencies: list[float] = []
        windows: list[tuple[float, int, int, int]] = []  # seconds, bits, values, raw samples
        calls = 0
        t0 = t1 = None
        w = 0
        while True:
            timed = w >= WARMUP_WINDOWS
            if timed and t0 is None:
                t0 = time.perf_counter()
            if timed and w - WARMUP_WINDOWS >= MIN_WINDOWS and time.perf_counter() - t0 >= seconds:
                break
            win_s = 0.0
            win_bits = win_values = 0
            raw_before = pipe.raw_samples_consumed
            for _ in range(WINDOW_CALLS):
                t = time.perf_counter()
                try:
                    batch = pipe.process_blocks(BATCH_BLOCKS, want)
                except Exception as exc:  # a failed call is a failed operation
                    batch = None
                    bad = [f"{type(exc).__name__}: {exc}"]
                dt = time.perf_counter() - t
                if batch is not None:
                    bad = _check_call(batch, pipe, want, BATCH_BLOCKS)
                    bits, values = _payload(batch)
                    win_bits += bits
                    win_values += values
                    if calls < DIGEST_CALLS:
                        digest.update(_digest_bytes(batch))
                    if len(uniform_head) < CHECK_BYTES:
                        uniform_head += batch.uniform[: CHECK_BYTES - len(uniform_head)]
                    if sum(g.size for g in gauss_head) < config.gof_samples and batch.gaussian_i.size:
                        gauss_head.append(batch.gaussian_i)
                failures += [f"call {calls}: {b}" for b in bad]
                failed_calls += bool(bad)
                win_s += dt
                if timed:
                    latencies.append(dt)
                    ok_calls += not bad and dt <= OP_LIMIT_S
                calls += 1
            if timed:
                windows.append((win_s, win_bits, win_values, pipe.raw_samples_consumed - raw_before))
                t1 = time.perf_counter()
            w += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    # run-level checks: each failing one counts as one more failed operation
    run_failures = [checks.check_reports(pipe.reports, config)]
    if "uniform" in want:
        head = bytes(uniform_head)
        run_failures += [checks.check_bits(head), checks.check_no_repeated_window(head)]
    if "gaussian" in want:
        run_failures.append(checks.check_gaussian(np.concatenate(gauss_head)[: config.gof_samples]))
    for bad in run_failures:
        failures += bad
    failed = min(calls, failed_calls + sum(1 for bad in run_failures if bad))

    lat = np.asarray(latencies)
    return {
        "setups": setups,
        "windows": windows,
        "latencies": lat,
        "ok": ok_calls,
        "attempted": calls,
        "failed": failed,
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "certifications": len(pipe.reports),
        "raw_samples": pipe.raw_samples_consumed,
        "t0": t0,
        "t1": t1,
    }


def end_to_end(res: dict) -> dict:
    win = np.asarray(res["windows"], dtype=np.float64)
    secs = win[:, 0]
    lat = res["latencies"]
    return {
        "setup_s": float(np.median(res["setups"])),
        "out_mbit_s": float(np.median(win[:, 1] / secs)) / 1e6,
        "raw_msample_s": float(np.median(win[:, 3] / secs)) / 1e6,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": res["ok"] / lat.size,
        "out_mvalue_s": float(np.median(win[:, 2] / secs)) / 1e6,
    }
