import gc
import json
import time
import weakref
from dataclasses import replace
import urllib.error
import urllib.request

import pytest

from triqrng.config import PipelineConfig
from triqrng.pipeline import Pipeline
from triqrng.service import RandomService, _ByteBuffer


def service_config(**kw) -> PipelineConfig:
    base = dict(
        certify_samples=1 << 17,
        recertify_every=1 << 20,
        buffer_bytes=1 << 20,
        max_request_bytes=1 << 18,
        request_timeout_s=20.0,
        gate_alpha=0.0005,
        listen="127.0.0.1:0",
    )
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def service():
    svc = RandomService(service_config())
    svc.start()
    yield svc
    svc.stop()


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def test_health_schema(service):
    status, _, body = _get(service.port, "/health")
    assert status == 200
    doc = json.loads(body)
    expected_keys = {
        "status", "certified", "certifications", "h_min_per_bit", "n_eff",
        "epsilon", "buffer_fill", "served_bytes", "discarded_buffers",
        "raw_samples_consumed",
    }
    assert set(doc) == expected_keys
    assert set(doc["h_min_per_bit"]) == {"i", "q"}
    # schema is stable across calls
    status2, _, body2 = _get(service.port, "/health")
    assert set(json.loads(body2)) == expected_keys


def test_zero_bytes_is_bad_request(service):
    status, _, body = _get(service.port, "/random?type=uniform&bytes=0")
    assert status == 400


def test_bad_type_is_bad_request(service):
    status, _, _ = _get(service.port, "/random?type=exponential&bytes=16")
    assert status == 400


def test_oversized_request_is_bad_request(service):
    too_big = service.config.max_request_bytes + 1
    status, _, _ = _get(service.port, f"/random?type=uniform&bytes={too_big}")
    assert status == 400


def test_unknown_path_404(service):
    status, _, _ = _get(service.port, "/nope")
    assert status == 404


def test_uniform_bytes_never_repeat(service):
    status1, _, a = _get(service.port, "/random?type=uniform&bytes=1024")
    status2, _, b = _get(service.port, "/random?type=uniform&bytes=1024")
    assert status1 == status2 == 200
    assert len(a) == len(b) == 1024
    assert a != b
    _, _, health = _get(service.port, "/health")
    assert json.loads(health)["served_bytes"]["uniform"] >= 2048


def test_gaussian_and_rayleigh_payloads(service):
    status, headers, data = _get(service.port, "/random?type=gaussian&bytes=4096")
    assert status == 200
    assert headers["Content-Type"] == "application/x-int16-le"
    assert len(data) == 4096
    status, headers, data = _get(service.port, "/random?type=rayleigh&bytes=4096")
    assert status == 200
    assert headers["Content-Type"] == "application/x-float32-le"
    assert headers["X-Data-Quality"] == "denoised-raw-uncertified"


def test_served_offsets_monotone(service):
    offsets = []
    for _ in range(3):
        _get(service.port, "/random?type=uniform&bytes=512")
        _, _, health = _get(service.port, "/health")
        offsets.append(json.loads(health)["served_bytes"]["uniform"])
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == 3


def test_byte_buffer_take_spans_chunks_in_order():
    buf = _ByteBuffer(capacity=1 << 10)
    chunks = [bytes(range(i * 10, i * 10 + 10)) for i in range(5)]
    for c in chunks:
        buf.put(c)
    stream = b"".join(chunks)
    # first take ends inside chunk 2, the second spans the rest of it,
    # all of chunk 3 and part of chunk 4
    assert buf.take(23, timeout=0.1) == stream[:23]
    assert buf.take(22, timeout=0.1) == stream[23:45]
    assert buf.available() == 5
    assert buf.take(6, timeout=0.05) is None
    assert buf.take(5, timeout=0.1) == stream[45:]
    assert buf.served_offset == 50 and buf.available() == 0


def test_byte_buffer_put_past_capacity_returns_at_once():
    # capacity is the producer's fill target; put itself never waits
    buf = _ByteBuffer(capacity=16)
    buf.put(bytes(40))
    t0 = time.perf_counter()
    buf.put(bytes(range(8)))
    assert time.perf_counter() - t0 < 1.0
    assert buf.available() == 48
    assert buf.take(48, timeout=0.1)[40:] == bytes(range(8))


def test_gate_discards_failed_buffers_and_503():
    # gate_alpha = 0.999 rejects essentially every buffer (all four p-values
    # would have to reach it), so the certified uniform store stays empty
    # and requests must 503
    svc = RandomService(service_config(gate_alpha=0.999, request_timeout_s=0.3))
    svc.start()
    try:
        deadline = time.time() + 30
        while svc.discarded_buffers == 0 and time.time() < deadline:
            time.sleep(0.1)
        assert svc.discarded_buffers > 0
        status, _, _ = _get(svc.port, "/random?type=uniform&bytes=1024")
        assert status == 503
    finally:
        svc.stop()


def test_a_failed_gate_drops_exactly_its_batch(monkeypatch):
    # the gate judges each batch's uniform bytes whole: failing its third
    # call removes that batch, and nothing else, from the served stream
    made = []
    real_process = Pipeline.process_blocks

    def recorded(self, n_blocks, want=frozenset()):
        batch = real_process(self, n_blocks, want)
        if batch.uniform:
            made.append(batch.uniform)
        return batch

    calls = []

    def third_fails(self, chunk):
        calls.append(len(chunk))
        return len(calls) != 3

    monkeypatch.setattr(Pipeline, "process_blocks", recorded)
    monkeypatch.setattr(RandomService, "_gate_uniform", third_fails)
    svc = RandomService(service_config())
    svc.start()
    try:
        served = b"".join(_get(svc.port, "/random?type=uniform&bytes=262144")[2] for _ in range(4))
    finally:
        svc.stop()
    assert len(served) == 4 * 262144
    assert svc.discarded_buffers == 1
    assert calls == [len(u) for u in made]
    kept = b"".join(made[:2] + made[3:])
    assert len(kept) >= len(served) and kept.startswith(served)


def test_uniform_is_served_when_a_default_batch_is_below_one_gate_evaluation():
    # a 512-block batch at block_m = 512 is 524,288 bits, short of the
    # gate's 10^6; the service makes batches big enough to gate whole
    svc = RandomService(service_config(block_m=512))
    svc.start()
    try:
        for _ in range(3):
            assert _get(svc.port, "/random?type=uniform&bytes=65536")[0] == 200
        assert svc.discarded_buffers == 0 and not svc.producer_failed
    finally:
        svc.stop()


def test_stopped_service_is_freed_without_the_cycle_collector():
    # a service restarted in one process must not hold the old pipeline's
    # arrays until a garbage collection that comes at no set time
    svc = RandomService(service_config())
    svc.start()
    assert _get(svc.port, "/random?type=uniform&bytes=64")[0] == 200
    svc.stop()
    service_ref, pipeline_ref = weakref.ref(svc), weakref.ref(svc.pipeline)
    gc.disable()
    try:
        del svc
        assert service_ref() is None
        assert pipeline_ref() is None
    finally:
        gc.enable()


def test_backpressure_pauses_the_producer():
    # tiny buffers with no consumer: the producer must stall on the full
    # buffer instead of consuming more raw samples
    svc = RandomService(service_config(buffer_bytes=1 << 20, request_timeout_s=0.5))
    svc.start()
    try:
        deadline = time.time() + 60
        prev = -1
        while time.time() < deadline:
            cur = svc.pipeline.raw_samples_consumed
            if cur == prev and cur > 0:
                break
            prev = cur
            time.sleep(0.5)
        stalled_at = svc.pipeline.raw_samples_consumed
        time.sleep(1.5)
        assert svc.pipeline.raw_samples_consumed == stalled_at
    finally:
        svc.stop()


def test_full_gaussian_buffer_does_not_starve_uniform():
    # a Gaussian batch (two pools of 2^17 codes, 512 KiB) is larger than the
    # free room of a 1 MB buffer holding one such batch; a client that only
    # asks for uniform bytes must keep being served
    svc = RandomService(service_config(pool_size=1 << 17, buffer_bytes=1_000_000,
                                       request_timeout_s=10.0))
    svc.start()
    try:
        for k in range(40):
            status = _get(svc.port, "/random?type=uniform&bytes=65536")[0]
            assert status == 200, f"uniform request {k} got {status}"
        assert svc.buffers["gaussian"].available() >= 1_000_000
    finally:
        svc.stop()


def test_producer_exception_reports_failed(monkeypatch):
    def boom(self, n_blocks, want=frozenset()):
        raise RuntimeError("injected producer fault")

    monkeypatch.setattr(Pipeline, "process_blocks", boom)
    svc = RandomService(service_config())
    svc.start()
    try:
        deadline = time.time() + 5
        status = None
        while time.time() < deadline and status != "failed":
            status = json.loads(_get(svc.port, "/health")[2])["status"]
            time.sleep(0.05)
        assert status == "failed"
    finally:
        svc.stop()


def test_lo_power_drop_stops_uniform_service_but_not_shaped_output():
    svc = RandomService(service_config(request_timeout_s=2.0))
    svc.start()
    try:
        assert json.loads(_get(svc.port, "/health")[2])["certified"] is True
        assert _get(svc.port, "/random?type=uniform&bytes=65536")[0] == 200
        # halve the LO power of the stream: the trailing windows of the
        # extracted codes fall below the budget for block_m within a few batches
        m = svc.pipeline.model
        svc.pipeline.model = replace(m, sigma_q2=m.sigma_q2 / 2)
        deadline = time.time() + 60
        status, body = 200, b""
        while status == 200 and time.time() < deadline:
            status, _, body = _get(svc.port, "/random?type=uniform&bytes=65536")
        assert status == 503 and json.loads(body)["retry"] is False
        assert "uniform output stopped" in json.loads(body)["error"]
        health = json.loads(_get(svc.port, "/health")[2])
        assert health["certified"] is False
        assert health["status"] == "degraded"
        left = health["buffer_fill"]["uniform"]  # released before the stop: still served
        if left:
            assert _get(svc.port, f"/random?type=uniform&bytes={left}")[0] == 200
        time.sleep(0.5)  # stays stopped while the producer runs on
        assert json.loads(_get(svc.port, "/health")[2])["buffer_fill"]["uniform"] == 0
        assert _get(svc.port, "/random?type=uniform&bytes=16")[0] == 503
        for rtype in ("gaussian", "rayleigh"):
            assert _get(svc.port, f"/random?type={rtype}&bytes=4096")[0] == 200
    finally:
        svc.stop()
