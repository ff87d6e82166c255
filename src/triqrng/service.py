"""Local HTTP analog of the always-on random number service.

Endpoints:
    GET /random?type={uniform|gaussian|rayleigh}&bytes=N
        uniform  -> packed bits, application/octet-stream
        gaussian -> little-endian int16 fixed-point values, application/x-int16-le
        rayleigh -> little-endian float32 values, application/x-float32-le,
                    flagged X-Data-Quality: denoised-raw-uncertified
    GET /health
        JSON summary: latest certification, buffer fill, served offsets;
        status "degraded" while an output type is stopped, "failed" once
        the producer thread has died.

Uniform bytes are only served from blocks whose own codes' trailing
certification window cleared the leftover-hash budget, and each batch's
uniform bytes pass the internal bit-test subset whole or are discarded
whole and counted; nothing waits between batches. Once the pipeline stops
an output type (fail closed), the producer makes no more of it and
requests the buffer cannot fill get 503 at once; `/health` reports
`certified: false` once uniform output stopped. Within
one process every byte is served at most once (monotone per-type served
offsets); a restarted service makes its stream again from the config, so
it replays the bytes an earlier process served.
Plaintext HTTP, no auth: this is a demonstration analog, not a hardened
service.
"""

from __future__ import annotations

import json
import logging
import threading
import weakref
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .bits import BitBlock
from .config import PipelineConfig
from .pipeline import BATCH_BLOCKS, Pipeline
from .stats import MIN_BITS, bit_tests

log = logging.getLogger(__name__)

# Content type of each output type's wire format (BlockBatch.wire).
CONTENT_TYPES = {
    "uniform": "application/octet-stream",
    "gaussian": "application/x-int16-le",
    "rayleigh": "application/x-float32-le",
}


class _ByteBuffer:
    """FIFO byte store with a monotone served-offset counter.

    `capacity` is a fill target, not a hard bound: the producer only adds
    to a buffer below it, so a buffer holds at most capacity plus one batch.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._chunks: deque[bytes] = deque()
        self._size = 0
        self.served_offset = 0
        self.lock = threading.Lock()
        self.not_empty = threading.Condition(self.lock)

    def available(self) -> int:
        with self.lock:
            return self._size

    def put(self, data: bytes) -> None:
        with self.not_empty:
            self._chunks.append(data)
            self._size += len(data)
            self.not_empty.notify_all()

    def take(self, nbytes: int, timeout: float) -> bytes | None:
        with self.not_empty:
            if not self.not_empty.wait_for(lambda: self._size >= nbytes, timeout=timeout):
                return None
            out = bytearray()
            while len(out) < nbytes:
                chunk = self._chunks[0]
                need = nbytes - len(out)
                if len(chunk) <= need:
                    out += chunk
                    self._chunks.popleft()
                else:
                    out += chunk[:need]
                    self._chunks[0] = chunk[need:]
            self._size -= nbytes
            self.served_offset += nbytes
            return bytes(out)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    service: RandomService


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # quiet
        pass

    def do_GET(self):  # noqa: N802 (stdlib handler API)
        self.server.service._handle(self)


class RandomService:
    """Pipeline-backed bit server. start() returns once the port is bound."""

    def __init__(self, config: PipelineConfig, producer_enabled: bool = True):
        self.config = config
        self.producer_enabled = producer_enabled
        self._stop = threading.Event()
        self.pipeline: Pipeline | None = None
        self.discarded_buffers = 0
        self.producer_failed = False
        self.buffers = {t: _ByteBuffer(config.buffer_bytes) for t in CONTENT_TYPES}
        self._httpd: _Server | None = None
        self._threads: list[threading.Thread] = []

    # -- producer ----------------------------------------------------------

    def _gate_uniform(self, chunk: bytes) -> bool:
        reports = bit_tests(BitBlock.from_bytes(chunk), alpha=self.config.gate_alpha)
        return all(r.passed for r in reports)

    def _run_producer(self) -> None:
        try:
            self._produce()
        except Exception:
            self.producer_failed = True
            log.exception("producer stopped; no further output will be made")

    def _produce(self) -> None:
        assert self.pipeline is not None
        # each batch's uniform bytes are one whole gate evaluation of at least MIN_BITS
        n_blocks = max(BATCH_BLOCKS, -(-MIN_BITS // (2 * self.config.block_m)))
        while not self._stop.is_set():
            # materialize only the types whose buffers are below capacity
            # (pure routing); consume no raw samples when every buffer is full
            want = {t for t, buf in self.buffers.items()
                    if buf.available() < buf.capacity and t not in self.pipeline.stopped}
            if not want:
                self._stop.wait(timeout=0.05)
                continue
            batch = self.pipeline.process_blocks(n_blocks, want=want)
            for output, buf in self.buffers.items():
                data = batch.wire(output, self.pipeline.n_out)
                if not data:
                    continue
                if output == "uniform" and not self._gate_uniform(data):
                    self.discarded_buffers += 1
                else:
                    buf.put(data)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.pipeline = Pipeline(self.config)
        host, _, port = self.config.listen.rpartition(":")
        self._httpd = _Server((host or "127.0.0.1", int(port or 0)), _Handler)
        # a weak back-reference: no cycle keeps a dropped service (and its
        # pipeline's memory) alive until the next cyclic garbage collection
        self._httpd.service = weakref.proxy(self)
        t = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        t.start()
        self._threads.append(t)
        if self.producer_enabled:
            p = threading.Thread(target=self._run_producer, daemon=True)
            p.start()
            self._threads.append(p)

    @property
    def port(self) -> int:
        assert self._httpd is not None
        return self._httpd.server_address[1]

    def stop(self) -> None:
        self._stop.set()
        if self._httpd:
            self._httpd.shutdown()
            self._httpd.server_close()
        for t in self._threads:
            t.join(timeout=5)

    # -- request handling ----------------------------------------------------

    def _handle(self, req: BaseHTTPRequestHandler) -> None:
        url = urlparse(req.path)
        if url.path == "/health":
            self._send_json(req, 200, self._health())
            return
        if url.path != "/random":
            self._send_json(req, 404, {"error": "unknown path"})
            return
        query = parse_qs(url.query)
        rtype = query.get("type", [""])[0]
        if rtype not in self.buffers:
            self._send_json(req, 400, {"error": f"bad type {rtype!r}"})
            return
        try:
            nbytes = int(query.get("bytes", ["0"])[0])
        except ValueError:
            self._send_json(req, 400, {"error": "bytes must be an integer"})
            return
        if nbytes <= 0 or nbytes > self.config.max_request_bytes:
            self._send_json(req, 400, {"error": f"bytes must be in [1, {self.config.max_request_bytes}]"})
            return
        # a stopped type only drains what it released before it stopped
        timeout = 0.0 if rtype in self.pipeline.stopped else self.config.request_timeout_s
        data = self.buffers[rtype].take(nbytes, timeout=timeout)
        if data is None:
            reason = self.pipeline.stopped.get(rtype)  # it may have stopped while the request waited
            if reason:
                self._send_json(req, 503, {"error": f"{rtype} output stopped: {reason}", "retry": False})
            else:
                self._send_json(req, 503, {"error": "certified buffer empty", "retry": True})
            return
        req.send_response(200)
        req.send_header("Content-Type", CONTENT_TYPES[rtype])
        req.send_header("Content-Length", str(len(data)))
        if rtype == "rayleigh":
            req.send_header("X-Data-Quality", "denoised-raw-uncertified")
        req.end_headers()
        req.wfile.write(data)

    def _health(self) -> dict:
        assert self.pipeline is not None
        latest = self.pipeline.reports[-1]
        return {
            "status": "failed" if self.producer_failed else "degraded" if self.pipeline.stopped else "ok",
            "certified": "uniform" not in self.pipeline.stopped,
            "certifications": len(self.pipeline.reports),
            "h_min_per_bit": {ch: r.h_min_per_bit for ch, r in latest.items()},
            "n_eff": {ch: r.n_eff for ch, r in latest.items()},
            "epsilon": self.config.epsilon,
            "buffer_fill": {t: b.available() for t, b in self.buffers.items()},
            "served_bytes": {t: b.served_offset for t, b in self.buffers.items()},
            "discarded_buffers": self.discarded_buffers,
            "raw_samples_consumed": self.pipeline.raw_samples_consumed,
        }

    @staticmethod
    def _send_json(req: BaseHTTPRequestHandler, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        req.send_response(code)
        req.send_header("Content-Type", "application/json")
        req.send_header("Content-Length", str(len(body)))
        req.end_headers()
        req.wfile.write(body)
