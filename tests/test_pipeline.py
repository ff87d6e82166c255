import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import triqrng.pipeline

from triqrng.adc import quantize_channel
from triqrng.bits import BitBlock
from triqrng.config import PipelineConfig
from triqrng.entropy import extractable_length
from triqrng.gaussian import encode_gaussian
from triqrng.pipeline import (BATCH_BLOCKS, PREFETCH, Pipeline, StartupError, certify, rayleigh_amplitudes,
                              run_pipeline)
from triqrng.rayleigh import encode_rayleigh, savitzky_golay
from triqrng.service import RandomService
from triqrng.source import simulate_quadratures
from triqrng.stats import bit_tests


def fast_config(**kw) -> PipelineConfig:
    base = dict(certify_samples=1 << 18, recertify_every=1 << 20)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def preset_reports():
    return certify(fast_config())


def test_certify_reports_both_channels(preset_reports):
    assert set(preset_reports) == {"i", "q"}
    for rep in preset_reports.values():
        assert 0.6 < rep.h_min_per_bit < 0.8
        assert rep.sigma_m2 > rep.sigma_qc2 > 0
        assert rep.n_eff > 0
        assert 0 < rep.extractable_fraction <= 1


def test_certify_deterministic():
    a = certify(fast_config())
    b = certify(fast_config())
    assert a["i"].h_min_per_bit == b["i"].h_min_per_bit


def test_zero_excess_certifies_higher():
    noisy = certify(fast_config())
    quiet = certify(fast_config(sigma_e2=0.0))
    assert quiet["i"].h_min_per_bit > noisy["i"].h_min_per_bit
    assert quiet["q"].h_min_per_bit > noisy["q"].h_min_per_bit


def test_block_geometry_exact():
    run = run_pipeline(fast_config(), duration_blocks=1, want={"uniform"})
    # 1024 extracted bits per 1536-bit input block, two channels interleaved
    assert len(run.uniform) * 8 == 2 * 1024


def test_uniform_output_deterministic():
    a = run_pipeline(fast_config(), duration_blocks=4, want={"uniform"})
    b = run_pipeline(fast_config(), duration_blocks=4, want={"uniform"})
    assert a.uniform == b.uniform


def test_first_outputs_fail_the_bit_tests_at_the_chance_rate_across_seeds():
    # a correct stream fails one of the four SP 800-22 tests at alpha = 0.01
    # with probability about 1 - 0.99^4 = 3.9%, so one stream's verdict is a
    # chance outcome; across seeds, the first MiB (what `extract` writes by
    # default) fails no more often than that rate allows
    seeds = range(1, 41)
    limit = int(stats.binom.isf(1e-3, len(seeds), 1 - 0.99 ** 4))  # P(more than limit) <= 1e-3
    failed = []
    for seed in seeds:
        run = run_pipeline(fast_config(prng_seed=seed), duration_blocks=4096, want={"uniform"})
        if not all(r.passed for r in bit_tests(BitBlock.from_bytes(run.uniform), alpha=0.01)):
            failed.append(seed)
    assert len(failed) <= limit, failed


def test_type_switching_keeps_raw_consumption_fixed():
    runs = [
        run_pipeline(fast_config(), duration_blocks=8, want=w)
        for w in ({"uniform"}, {"gaussian"}, {"rayleigh"}, {"uniform", "gaussian", "rayleigh"})
    ]
    consumed = {r.raw_samples_consumed for r in runs}
    assert len(consumed) == 1


def test_gaussian_codes_fit_the_int16_wire_at_the_precision_cap():
    # a near-ideal 16-bit source certifies 14 input bits; uncapped, 14 + 4 - 1 = 17-bit
    # codes would be shifted left by -1 on the wire, and every wire value would be 0
    cfg = fast_config(filter_taps=(1.0,), sigma_e2=1e-8, adc_dnl_max=0.0, certify_samples=1 << 17,
                      pool_size=4096)
    run = run_pipeline(cfg, duration_blocks=-(-4096 // 96), want={"gaussian"})
    assert run.n_out == 16
    for codes in (run.gaussian_i, run.gaussian_q):
        assert codes.size == 4096
        assert -(1 << 15) <= codes.min() and codes.max() < 1 << 15
    wire = np.frombuffer(encode_gaussian(run.gaussian_i, run.gaussian_q, run.n_out), dtype="<i2")
    assert np.count_nonzero(wire) > 0.99 * wire.size
    assert np.array_equal(wire, np.concatenate([run.gaussian_i, run.gaussian_q]).reshape(2, -1).T.ravel())


def test_gaussian_output_precision_and_pool_granularity():
    cfg = fast_config(pool_size=4096)
    samples_per_block = cfg.block_n // cfg.adc_bits
    blocks_for_two_pools = -(-2 * 4096 // samples_per_block)
    run = run_pipeline(cfg, duration_blocks=blocks_for_two_pools, want={"gaussian"})
    assert run.n_out == 14
    assert run.gaussian_i.size == 2 * 4096
    assert run.gaussian_q.size == 2 * 4096
    assert run.gaussian_i.min() >= -(1 << 13)
    assert run.gaussian_i.max() <= (1 << 13) - 1


def test_rayleigh_output_nonnegative():
    run = run_pipeline(fast_config(), duration_blocks=8, want={"rayleigh"})
    assert run.rayleigh.size > 0
    assert float(run.rayleigh.min()) >= 0.0


def test_rayleigh_stage_clamps_edge_overshoot():
    # the cubic refit over the first window of this rise reads -8.87 at index 0
    amps = np.array([0.7, 0.7, 5.0] + [20.0] * 5 + [60.0] * 32)
    out = rayleigh_amplitudes(amps, np.zeros_like(amps), window=31, order=3)
    smoothed = savitzky_golay(amps, 31, 3)
    assert smoothed[0] < -8.0
    assert out.dtype == np.float32
    assert out[0] == 0.0
    assert np.array_equal(out[smoothed >= 0], smoothed[smoothed >= 0].astype(np.float32))


def test_stream_identity_pinned():
    # SHA-256 of one small fixed run; a change to any output byte must
    # update these digests on purpose and say why
    cfg = fast_config(certify_samples=1 << 16, recertify_every=64, pool_size=4096)
    run = run_pipeline(cfg, duration_blocks=160, batch_blocks=32)
    gauss = run.gaussian_i.astype("<i8").tobytes() + run.gaussian_q.astype("<i8").tobytes()
    # the startup report, then one stream report per 64 blocks (two
    # batches of 32); the windows close on every batch from the first
    assert len(run.reports) == 3
    assert (len(run.uniform), run.gaussian_i.size, run.rayleigh.size) == (40960, 12288, 15360)
    assert hashlib.sha256(run.uniform).hexdigest() == (
        "e24cd92a1e511714773a37a9ed1bdf62e15c1a67ed6eaf933bac7fe4594bfd03")
    assert hashlib.sha256(gauss).hexdigest() == (
        "2a030f73bcec95024601c19121cc6bd7154fbbcac3a7ac4181b1fae5ba92b56e")
    assert hashlib.sha256(run.rayleigh.astype("<f4").tobytes()).hexdigest() == (
        "c61d6038b3d6665e4c909ac687f248abc4237dbf0aa5255c3b79569fc18ce3d6")


def test_wire_identity_pinned():
    # SHA-256 of the served Gaussian and Rayleigh wire bytes of the
    # test_stream_identity_pinned run
    cfg = fast_config(certify_samples=1 << 16, recertify_every=64, pool_size=4096)
    run = run_pipeline(cfg, duration_blocks=160, batch_blocks=32)
    assert hashlib.sha256(encode_gaussian(run.gaussian_i, run.gaussian_q, run.n_out)).hexdigest() == (
        "27b43a0c3f0f2082408793f30800428952582a52d5f5e83c9658b45d90898ddd")
    assert hashlib.sha256(encode_rayleigh(run.rayleigh)).hexdigest() == (
        "c61d6038b3d6665e4c909ac687f248abc4237dbf0aa5255c3b79569fc18ce3d6")


def test_certify_identity_pinned():
    # SHA-256 of the `triqrng certify` JSON (sorted keys) of the default config
    reports = certify(PipelineConfig())
    text = json.dumps({ch: asdict(r) for ch, r in reports.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4adf0fe5739124a781654e61cf70fe37de5bc7bc7654d7d1aa90b10006220a7b")


def test_seed_identity_pinned():
    # SHA-256 of the default config's packed Toeplitz seed (n - 1 = 1535
    # bits): the seed is derived from the config at every start
    seed = Pipeline(PipelineConfig()).seed
    assert seed.bits.len == 1535
    assert hashlib.sha256(seed.bits.tobytes()).hexdigest() == (
        "1f627e40c56a60ac89a2bec88ca0229cf1faa2dffd7245268cb62f11d51fca7b")


def test_startup_gate_rejects_overcommitted_geometry():
    # demand more output bits than the certified budget allows
    with pytest.raises(StartupError) as err:
        Pipeline(fast_config(block_n=1536, block_m=1248))
    msg = str(err.value)
    assert "block_m=1248" in msg and "budget" in msg


def test_startup_window_the_bound_cannot_be_evaluated_on_is_refused(monkeypatch):
    # an LO-off background four times the excess noise is louder than the
    # whole startup record: the quantum lag-0 variance is negative
    real = triqrng.pipeline._startup_windows
    monkeypatch.setattr(triqrng.pipeline, "_startup_windows",
                        lambda cfg: (real(cfg)[0], real(replace(cfg, sigma_e2=4 * cfg.sigma_e2))[1]))
    with pytest.raises(StartupError, match="certification failed.*not positive"):
        Pipeline(fast_config())


def test_certify_of_the_simulated_records_is_the_startup_certification():
    # the records certify and Pipeline simulate when none is given: the
    # startup record at prng_seed, the LO-off background at prng_seed + 10_000
    cfg = fast_config()
    spec = cfg.adc_spec()

    def record(config, seed):
        frame = simulate_quadratures(config.noise_model(), cfg.certify_samples, seed)
        return quantize_channel(frame.i_samples, spec).codes, quantize_channel(frame.q_samples, spec).codes

    reports = certify(cfg, record(cfg, cfg.prng_seed), record(replace(cfg, lo_power_mw=0.0), cfg.prng_seed + 10_000))
    assert reports == certify(cfg) == Pipeline(cfg).reports[0]


def test_every_uniform_batch_closes_the_startup_windows(monkeypatch):
    calls = []
    real = triqrng.pipeline.channel_report

    def counted(channel, window, *args):
        calls.append((channel, window))
        return real(channel, window, *args)

    monkeypatch.setattr(triqrng.pipeline, "channel_report", counted)
    run_pipeline(PipelineConfig(), 4096, want={"uniform"})
    # two at startup, then two for each of the eight 512-block batches,
    # all on the same two windows
    assert len(calls) == 18
    assert len({id(window) for _, window in calls}) == 2


def test_startup_gate_matches_extractable_length():
    pipe = Pipeline(fast_config())
    worst = min(r.h_min_per_bit for r in pipe.reports[0].values())
    budget = extractable_length(1536, worst, pipe.config.epsilon)
    assert pipe.config.block_m <= budget


def test_recertification_cadence():
    # stream reports close a trailing window of the extracted codes; one is
    # logged once the window has filled and recertify_every blocks passed
    cfg = fast_config(recertify_every=256, certify_samples=1 << 15)
    pipe = Pipeline(cfg)
    assert len(pipe.reports) == 1
    counts = []
    for _ in range(8):
        pipe.process_blocks(64, want={"uniform"})  # 6144 samples per channel
        counts.append(len(pipe.reports))
    assert counts == [1, 1, 1, 2, 2, 2, 2, 3]
    # the window keeps the fewest latest batches holding 2^15 samples
    assert {r.n_samples for r in pipe.reports[-1].values()} == {6 * 6144}
    assert pipe.stopped == {}


def test_reports_log_accumulates():
    cfg = fast_config(recertify_every=4, certify_samples=1 << 15)
    run = run_pipeline(cfg, 512, batch_blocks=64)
    assert len(run.reports) >= 2


def _lower_lo_power(pipe: Pipeline, factor: float) -> None:
    # the stream model drops its LO power mid-run; the background is unchanged
    m = pipe.model
    pipe.model = replace(m, sigma_q2=m.sigma_q2 / factor)


def _budget(reports, cfg) -> int:
    worst = min(r.h_min_per_bit for r in reports.values())
    return extractable_length(cfg.block_n, worst, cfg.epsilon)


def test_lo_power_drop_stops_uniform_output_for_good():
    # recertify_every=1 logs every closed window, so each batch's own
    # window report can be checked against what the batch returned
    cfg = fast_config(certify_samples=1 << 17, recertify_every=1)
    pipe = Pipeline(cfg)
    for _ in range(3):  # 49,152 samples per channel a batch, each closing its window
        batch = pipe.process_blocks(512, want={"uniform"})
        assert len(batch.uniform) == 512 * 2 * cfg.block_m // 8
    assert len(pipe.reports) == 4 and _budget(pipe.reports[-1], cfg) >= cfg.block_m
    _lower_lo_power(pipe, 2)
    released = []
    for _ in range(8):
        logged = len(pipe.reports)
        batch = pipe.process_blocks(512, want={"uniform", "gaussian"})
        assert len(pipe.reports) == logged + 1
        window_ok = _budget(pipe.reports[-1], cfg) >= cfg.block_m
        released.append(bool(batch.uniform))
        if window_ok and "uniform" not in pipe.stopped:
            assert len(batch.uniform) == 512 * 2 * cfg.block_m // 8
        else:
            assert batch.uniform == b""
    stop = released.index(False)
    assert not any(released[stop:])  # stays stopped even if a later window passes
    assert "budget" in pipe.stopped["uniform"]


def test_lo_power_drop_that_lowers_precision_stops_gaussian_output():
    cfg = fast_config(certify_samples=1 << 17, pool_size=4096)
    pipe = Pipeline(cfg)
    assert pipe.process_blocks(512).gaussian_i.size > 0
    _lower_lo_power(pipe, 8)
    batches = [pipe.process_blocks(512) for _ in range(6)]
    assert "10 Gaussian input bits" in pipe.stopped["gaussian"]
    stop = next(k for k, b in enumerate(batches) if b.gaussian_i.size == 0)
    assert all(b.gaussian_i.size == b.gaussian_q.size == 0 for b in batches[stop:])
    assert all(b.rayleigh.size == 512 * pipe.samples_per_block for b in batches)
    assert "uniform" in pipe.stopped


def test_window_that_cannot_be_certified_stops_uniform_and_gaussian(monkeypatch):
    cfg = fast_config(certify_samples=1 << 16)
    pipe = Pipeline(cfg)

    def no_bound(sigma_m2, sigma_qc2):
        raise ValueError("injected")

    monkeypatch.setattr(triqrng.pipeline, "effective_photon_number", no_bound)
    # the first batch already closes the window (startup record plus batch)
    batch = pipe.process_blocks(512)
    assert batch.uniform == b"" and batch.gaussian_i.size == 0 and batch.rayleigh.size > 0
    assert set(pipe.stopped) == {"uniform", "gaussian"}


def test_stream_below_its_background_stops_uniform_and_gaussian():
    # the LO goes off and the excess noise halves: a window of such codes
    # has lags below the LO-off background's, which the bound cannot use
    cfg = fast_config(certify_samples=1 << 16)
    pipe = Pipeline(cfg)
    assert pipe.process_blocks(512).uniform
    m = pipe.model
    pipe.model = replace(m, sigma_q2=0.0, sigma_e2=m.sigma_e2 / 2)
    batch = pipe.process_blocks(1024)  # 98,304 samples: the window holds this batch alone
    assert batch.uniform == b"" and batch.gaussian_i.size == 0 and batch.rayleigh.size > 0
    assert set(pipe.stopped) == {"uniform", "gaussian"}
    assert all("certification failed" in reason for reason in pipe.stopped.values())


def test_gaussian_only_batches_keep_certifying_after_uniform_stops():
    # once uniform output has stopped, a batch that asks only for Gaussian
    # output still feeds and closes the windows, so falling precision stops it
    cfg = fast_config(pool_size=4096, recertify_every=1)
    pipe = Pipeline(cfg)
    _lower_lo_power(pipe, 2)
    for _ in range(8):
        pipe.process_blocks(512, want={"uniform"})
        if "uniform" in pipe.stopped:
            break
    assert "uniform" in pipe.stopped and "gaussian" not in pipe.stopped
    made = []
    for _ in range(8):
        logged = len(pipe.reports)
        made.append(pipe.process_blocks(512, want={"gaussian"}).gaussian_i.size)
        assert len(pipe.reports) == logged + 1  # this batch's window was closed
        if "gaussian" in pipe.stopped:
            break
    assert "10 Gaussian input bits" in pipe.stopped["gaussian"]
    assert made[-1] == 0 and all(made[:-1])
    # with both certified types stopped, nothing is left to certify
    logged = len(pipe.reports)
    assert pipe.process_blocks(512, want={"gaussian"}).gaussian_i.size == 0
    assert len(pipe.reports) == logged


@pytest.mark.parametrize("n_blocks, want, match", [
    pytest.param(0, {"uniform"}, "n_blocks", id="zero-blocks"),
    pytest.param(-4, {"uniform"}, "n_blocks", id="negative-blocks"),
    pytest.param(8, {"uniforn"}, "want.*uniforn", id="misspelt-type"),
    pytest.param(8, {"gaussian", "exponential"}, "want.*exponential", id="unknown-type"),
])
def test_process_blocks_refuses_bad_arguments_before_consuming(n_blocks, want, match):
    pipe = Pipeline(fast_config(certify_samples=1 << 16))
    pipe.process_blocks(8, want={"rayleigh"})
    state = (list(pipe._ahead), pipe._chunk_index, pipe.raw_samples_consumed)
    with pytest.raises(ValueError, match=match):
        pipe.process_blocks(n_blocks, want=want)
    # both queued chunks are still waiting for the next batch
    assert (list(pipe._ahead), pipe._chunk_index, pipe.raw_samples_consumed) == state


# -- the two-batches-ahead source stage -------------------------------------

OUTPUT_TYPES = ("uniform", "gaussian", "rayleigh")


def serial_codes(pipe: Pipeline, index: int, count: int):
    """Oracle for stream chunk `index` under the pipeline's current inputs."""
    cfg = pipe.config
    frame = simulate_quadratures(pipe.model, count, cfg.prng_seed + 1_000_000 + index)
    return quantize_channel(frame.i_samples, pipe.spec), quantize_channel(frame.q_samples, pipe.spec)


class SerialPipeline(Pipeline):
    """The pipeline with each chunk made in line, in stream order."""

    chunks = 0

    def _next_codes(self, n_blocks):
        count = n_blocks * self.samples_per_block
        codes = serial_codes(self, self.chunks, count)
        self.chunks += 1
        self.raw_samples_consumed += 2 * count
        return codes


class RecordingPipeline(Pipeline):
    """The production pipeline, keeping the codes of every chunk it consumed."""

    def _next_codes(self, n_blocks):
        codes = super()._next_codes(n_blocks)
        self.__dict__.setdefault("consumed", []).append(codes)
        return codes


def _same_batch(a, b) -> bool:
    return (a.uniform == b.uniform and np.array_equal(a.gaussian_i, b.gaussian_i)
            and np.array_equal(a.gaussian_q, b.gaussian_q) and np.array_equal(a.rayleigh, b.rayleigh))


def _stage_config(**kw) -> PipelineConfig:
    return fast_config(certify_samples=1 << 16, pool_size=4096, **kw)


def _source_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("triqrng-source")}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 48), st.sets(st.sampled_from(OUTPUT_TYPES))), min_size=1, max_size=6))
def test_prefetched_stream_equals_the_serial_oracle(batches):
    # any batch sizes and routings: a size change discards the queued chunks
    cfg = _stage_config()
    pipe, oracle = RecordingPipeline(cfg), SerialPipeline(cfg)
    for k, (n_blocks, want) in enumerate(batches):
        batch = pipe.process_blocks(n_blocks, want)
        assert _same_batch(batch, oracle.process_blocks(n_blocks, want))
        expect = serial_codes(pipe, k, n_blocks * pipe.samples_per_block)
        assert all(np.array_equal(got.codes, ref.codes) and got.clamped == ref.clamped
                   for got, ref in zip(pipe.consumed[k], expect))
    assert pipe.raw_samples_consumed == oracle.raw_samples_consumed


@pytest.mark.parametrize("swap", ["model", "spec", "seed"])
def test_an_input_swapped_between_batches_takes_effect_on_the_next_batch(swap):
    # the chunks queued during batch 0 were made from the old inputs
    cfg = _stage_config()
    pipe, oracle = RecordingPipeline(cfg), SerialPipeline(cfg)
    for p in (pipe, oracle):
        p.process_blocks(16)
        if swap == "model":
            _lower_lo_power(p, 2)
        elif swap == "spec":
            p.spec = replace(p.spec, range_v=p.spec.range_v * 2)
        else:
            p.config = replace(p.config, prng_seed=p.config.prng_seed + 1)
    batch = pipe.process_blocks(16)
    expect = serial_codes(pipe, 1, 16 * pipe.samples_per_block)
    assert np.array_equal(pipe.consumed[1][0].codes, expect[0].codes)
    assert np.array_equal(pipe.consumed[1][1].codes, expect[1].codes)
    assert _same_batch(batch, oracle.process_blocks(16))


def _fail_on_call(n: int, only_size: int | None = None):
    """A quantize_channel that raises on its n-th call (counting only
    records of `only_size` samples if given)."""
    real = triqrng.pipeline.quantize_channel
    calls = itertools.count(1)

    def faulty(volts, spec):
        if (only_size is None or volts.size == only_size) and next(calls) == n:
            raise RuntimeError("injected ADC fault")
        return real(volts, spec)

    return faulty


def test_a_worker_fault_is_raised_by_the_batch_that_consumes_its_chunk(monkeypatch):
    pipe = Pipeline(_stage_config())
    # calls 1-2: chunk 0 in line; 3-4: chunk 1 on the worker; 5: chunk 2's I channel
    monkeypatch.setattr(triqrng.pipeline, "quantize_channel", _fail_on_call(5))
    pipe.process_blocks(16)  # queues chunks 1 and 2; chunk 2 fails on the worker
    pipe.process_blocks(16)  # consumes chunk 1 and queues chunk 3
    consumed = pipe.raw_samples_consumed
    with pytest.raises(RuntimeError, match="injected ADC fault"):
        pipe.process_blocks(16)
    assert pipe.raw_samples_consumed == consumed
    # the failed chunk was not consumed: the next batch makes it again, in line
    monkeypatch.undo()
    oracle = SerialPipeline(_stage_config())
    for _ in range(3):
        expect = oracle.process_blocks(16)
    assert _same_batch(pipe.process_blocks(16), expect)


def test_a_fault_in_the_second_queued_chunk_is_raised_only_by_the_call_that_consumes_it(monkeypatch):
    pipe = Pipeline(_stage_config())
    oracle = SerialPipeline(_stage_config())
    # calls 1-2: chunk 0 in line; 3-4: chunk 1, the head; 5: chunk 2's I channel, behind it
    monkeypatch.setattr(triqrng.pipeline, "quantize_channel", _fail_on_call(5))
    assert _same_batch(pipe.process_blocks(16), oracle.process_blocks(16))
    (head_inputs, head), (_, second) = pipe._ahead
    assert isinstance(second.exception(timeout=30), RuntimeError)
    # the head is whole: its batch returns the serial bytes and consumes one chunk
    consumed = pipe.raw_samples_consumed
    assert _same_batch(pipe.process_blocks(16), oracle.process_blocks(16))
    assert pipe.raw_samples_consumed == 2 * consumed
    assert head.exception() is None and head_inputs[2] == pipe.config.prng_seed + 1_000_000 + 1
    consumed = pipe.raw_samples_consumed
    with pytest.raises(RuntimeError, match="injected ADC fault"):
        pipe.process_blocks(16)
    assert pipe.raw_samples_consumed == consumed and pipe._chunk_index == 2
    monkeypatch.undo()
    assert _same_batch(pipe.process_blocks(16), oracle.process_blocks(16))


def test_a_batch_size_change_drops_both_queued_chunks(monkeypatch):
    made = []
    real = triqrng.pipeline.simulate_quadratures

    def counted(model, n, seed):
        made.append((n, seed))  # list.append is atomic, so the worker may call it too
        return real(model, n, seed)

    monkeypatch.setattr(triqrng.pipeline, "simulate_quadratures", counted)
    pipe = RecordingPipeline(_stage_config())
    made.clear()  # startup records
    spb = pipe.samples_per_block
    pipe.process_blocks(16)
    dropped = [future for _, future in pipe._ahead]
    assert [inputs[3] for inputs, _ in pipe._ahead] == [16 * spb] * PREFETCH
    pipe.process_blocks(8)
    assert all(future.done() for future in dropped)
    assert [inputs[3] for inputs, _ in pipe._ahead] == [8 * spb] * PREFETCH
    for _, future in pipe._ahead:
        future.result(timeout=30)
    base = pipe.config.prng_seed + 1_000_000
    # six chunks made: 0, 1 and 2 at 16 blocks, then 1 again in line, 2 and 3 at 8 blocks
    assert sorted(made) == sorted([(16 * spb, base + k) for k in (0, 1, 2)]
                                  + [(8 * spb, base + k) for k in (1, 2, 3)])
    # two consumed
    assert pipe.raw_samples_consumed == 2 * (16 + 8) * spb
    for k, n_blocks in enumerate((16, 8)):
        expect = serial_codes(pipe, k, n_blocks * spb)
        assert all(np.array_equal(got.codes, ref.codes) for got, ref in zip(pipe.consumed[k], expect))


def test_source_wait_counts_the_time_batches_wait_for_the_worker(monkeypatch):
    real = triqrng.pipeline.simulate_quadratures

    def slow_on_the_worker(model, n, seed):
        if threading.current_thread().name.startswith("triqrng-source"):
            time.sleep(0.5)
        return real(model, n, seed)

    pipe = Pipeline(_stage_config())
    monkeypatch.setattr(triqrng.pipeline, "simulate_quadratures", slow_on_the_worker)
    pipe.process_blocks(16)  # chunk 0 is made in line, with nothing queued to wait for
    assert pipe.source_wait_s < 0.05
    pipe.process_blocks(16)  # chunk 1 is still on the worker
    assert 0.2 < pipe.source_wait_s < 30


def test_a_worker_fault_fails_the_service(monkeypatch):
    cfg = PipelineConfig(certify_samples=1 << 17, recertify_every=1 << 20, buffer_bytes=1 << 20,
                         max_request_bytes=1 << 18, gate_alpha=0.0005, listen="127.0.0.1:0")
    batch_samples = BATCH_BLOCKS * (cfg.block_n // cfg.adc_bits)
    # the third batch's chunk fails on the worker; startup records are other sizes
    monkeypatch.setattr(triqrng.pipeline, "quantize_channel", _fail_on_call(5, only_size=batch_samples))
    svc = RandomService(cfg)
    svc.start()
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with urllib.request.urlopen(f"http://127.0.0.1:{svc.port}/health", timeout=30) as resp:
                health = json.loads(resp.read())
            if health["status"] == "failed":
                break
            time.sleep(0.05)
        assert health["status"] == "failed"
        assert health["raw_samples_consumed"] == 2 * 2 * batch_samples
    finally:
        svc.stop()


def test_a_dropped_pipeline_ends_its_worker_without_the_cycle_collector():
    pipe = Pipeline(_stage_config())
    before = _source_threads()
    pipe.process_blocks(16)
    assert len(pipe._ahead) == PREFETCH
    (worker,) = _source_threads() - before
    gc.disable()
    try:
        del pipe
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        gc.enable()


def test_importing_the_pipeline_starts_no_thread():
    code = "import threading, triqrng.pipeline; print(threading.active_count())"
    src = str(Path(triqrng.pipeline.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "1"


PACKAGE_DIR = Path(triqrng.pipeline.__file__).parent
SUBMODULES = tuple(sorted(f"triqrng.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"))
HTTP_SERVER = ("http.server", "socketserver")


@pytest.mark.parametrize("imports, absent, present", [
    pytest.param("triqrng, triqrng.cli, triqrng.service, triqrng.stats", ("scipy",), (), id="scipy"),
    pytest.param("triqrng", SUBMODULES, (), id="package"),
    pytest.param("triqrng.pipeline", HTTP_SERVER, (), id="pipeline"),
    pytest.param("triqrng.cli", HTTP_SERVER, (), id="cli"),
    pytest.param("triqrng.service", (), HTTP_SERVER, id="service"),
])
def test_the_runtime_imports_no_scipy(imports, absent, present):
    # each entry point loads only the modules it runs: scipy is the tests'
    # oracle, and the HTTP server loads only with the service
    code = f"import json, sys, {imports}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    loaded = json.loads(out.stdout)

    def loads(name):
        return any(m == name or m.startswith(name + ".") for m in loaded)

    assert [name for name in absent if loads(name)] == []
    assert all(loads(name) for name in present)


def test_startup_holds_one_channel_of_the_startup_record_at_a_time():
    # a channel's 2^20 float64 voltages and its draws are 8 MiB each; both
    # channels' voltages at once took the traced peak to about 26 MiB
    tracemalloc.start()
    try:
        Pipeline(PipelineConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2**20


def _stream_digest(pipe: Pipeline, plan) -> str:
    digest = hashlib.sha256()
    for n_blocks, want in plan:
        b = pipe.process_blocks(n_blocks, want)
        digest.update(b.uniform + b.gaussian_i.astype("<i8").tobytes() + b.gaussian_q.astype("<i8").tobytes()
                      + b.rayleigh.astype("<f4").tobytes())
    return digest.hexdigest()


def test_pipelines_in_more_threads_than_cores_keep_their_streams():
    # three pipelines plus their three workers on a short switch interval
    plan = [(24, set(OUTPUT_TYPES)), (24, {"gaussian", "rayleigh"}), (8, {"uniform"}),
            (24, set(OUTPUT_TYPES)), (24, {"rayleigh"}), (24, set(OUTPUT_TYPES))]
    configs = [_stage_config(prng_seed=seed) for seed in (11, 12, 13)]
    expect = [_stream_digest(SerialPipeline(cfg), plan) for cfg in configs]
    got: dict[int, str] = {}

    def run(k: int) -> None:
        got[k] = _stream_digest(Pipeline(configs[k]), plan)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert [got.get(k) for k in range(3)] == expect
