"""service-mixed: an open-loop HTTP load against RandomService.

The server runs in its own process (server.py). This process is the single
load client, with at most CONNECTIONS requests in flight. Arrival times
follow a seeded Poisson schedule: a fixed number of requests at a fixed
rate, placed as sorted uniform times over the run (a Poisson process given
its count), so every seed offers the same bytes. Latency runs from the
time a request was due, so a stalled server also delays the requests
queued behind it; how late the client sent is reported on its own.

The run has three phases. Fill: from start() until the producer goes
idle with every buffer full, which gives the service's production rate
(out_mbit_s, raw_msample_s). Digest fetch: a fixed prefix of each stream,
deterministic for a seed, then a wait for the refill. Window: the timed
open-loop load, which gives the latency metrics and ok_share.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import queue
import subprocess
import sys
import threading
import time

import numpy as np

from triqrng.config import PipelineConfig

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# Offered load: about half of the seed's uniform production (~0.9 MB/s).
RATES = {"uniform": 150.0, "gaussian": 20.0, "rayleigh": 20.0}  # requests/s
KEY_BYTES = (32, 4096)   # key-sized uniform requests, log-uniform sizes
BULK_SHARE = 0.05        # share of uniform requests that are bulk
BULK_BYTES = 32768
SHAPED_BYTES = 4096      # gaussian and rayleigh request size
CONNECTIONS = 2          # one per core of the 2-core reference machine
LATENCY_LIMIT_S = 0.02   # a 200 slower than this counts against ok_share (quiet p99: ~7 ms)
DIGEST_FETCH = (("uniform", 1_000_000), ("gaussian", 262_144), ("rayleigh", 262_144))
IDLE_S = 2.0             # producer idle: /health unchanged this long (a certification is ~1 s)
POLL_S = 0.05
FULL_MARGIN = 512 * 1024
HTTP_TIMEOUT_S = 60.0
SUB_WINDOWS = 4          # ~1190 requests each in a 25 s run: p99 leaves ~12 beyond


def schedule(seed: int, seconds: float) -> list[tuple[float, str, int]]:
    """(due offset in s, type, bytes), sorted by due time."""
    rng = np.random.default_rng([seed, 1])
    n_uniform = round(RATES["uniform"] * seconds)
    n_bulk = round(n_uniform * BULK_SHARE)
    n_key = n_uniform - n_bulk
    lo, hi = KEY_BYTES
    key_sizes = np.round(lo * (hi / lo) ** ((np.arange(n_key) + 0.5) / n_key)).astype(int)
    items = [("uniform", int(s)) for s in key_sizes] + [("uniform", BULK_BYTES)] * n_bulk
    for rtype in ("gaussian", "rayleigh"):
        items += [(rtype, SHAPED_BYTES)] * round(RATES[rtype] * seconds)
    order = rng.permutation(len(items))
    due = np.sort(rng.uniform(0.0, seconds, len(items)))
    return [(float(due[k]), *items[order[k]]) for k in range(len(items))]


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _health(port: int) -> dict:
    status, body = _get(port, "/health")
    if status != 200:
        raise RuntimeError(f"/health returned {status}")
    return json.loads(body)


def _wait_full_idle(port: int, capacity: int, timeout: float = 120.0) -> tuple[float, dict]:
    """Poll /health until every buffer is nearly full and nothing changed
    for IDLE_S; return the time of the last change and the health then."""
    deadline = time.perf_counter() + timeout
    last, since = None, time.perf_counter()
    while time.perf_counter() < deadline:
        h = _health(port)
        now = time.perf_counter()
        state = (h["raw_samples_consumed"], tuple(sorted(h["buffer_fill"].items())))
        if state != last:
            last, since = state, now
        elif now - since >= IDLE_S and min(h["buffer_fill"].values()) >= capacity - FULL_MARGIN:
            return since, h
        time.sleep(POLL_S)
    raise RuntimeError("service buffers did not fill")


class _Server:
    """The server.py child process and the lines it prints."""

    def __init__(self, seed: int, trace: bool, spans_path: str | None):
        cmd = [sys.executable, os.path.join(HERE, "server.py"), "--seed", str(seed), "--trace", str(int(trace))]
        if spans_path:
            cmd += ["--spans", spans_path]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_message(self, timeout: float) -> dict:
        line = self.lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)


def _drive(port: int, plan, t0: float) -> list[tuple]:
    """Send every planned request; (due, sent, done, status, body) each."""
    results: list[tuple | None] = [None] * len(plan)
    counter = itertools.count()

    def worker() -> None:
        while (i := next(counter)) < len(plan):
            offset, rtype, nbytes = plan[i]
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = _get(port, f"/random?type={rtype}&bytes={nbytes}")
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            results[i] = (due, sent, time.perf_counter(), status, body)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run_pass(seed: int, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    config = PipelineConfig(prng_seed=seed)
    server = _Server(seed, trace, spans_path)
    try:
        ready = server.next_message(timeout=170)
        t_ready = time.perf_counter()
        port = ready["port"]
        # production from empty buffers: the service's own throughput
        t_full, filled = _wait_full_idle(port, config.buffer_bytes)
        fill_s = t_full - t_ready
        fetched = {}
        fetch_failures = 0
        for rtype, nbytes in DIGEST_FETCH:
            status, body = _get(port, f"/random?type={rtype}&bytes={nbytes}")
            ok = status == 200 and len(body) == nbytes
            fetched[rtype] = body if ok else b""
            fetch_failures += not ok
        _wait_full_idle(port, config.buffer_bytes)

        plan = schedule(seed, seconds)
        h0 = _health(port)
        t0 = time.perf_counter() + 0.01
        results = _drive(port, plan, t0)
        t1 = max(r[2] for r in results)
        h1 = _health(port)
        server.send({"t0": t0, "t1": t1})
        final = server.next_message(timeout=60)
    finally:
        server.close()

    lat = np.array([done - due for due, _, done, _, _ in results])
    late = np.array([sent - due for due, sent, _, _, _ in results])
    full = np.array([status == 200 and len(body) == plan[i][2]
                     for i, (_, _, _, status, body) in enumerate(results)])
    ok = full & (lat <= LATENCY_LIMIT_S)

    def bodies(rtype: str) -> list[bytes]:
        return [r[4] for r, p, f in zip(results, plan, full) if p[1] == rtype and f]

    uniform = b"".join([fetched["uniform"]] + bodies("uniform"))
    rayleigh = np.frombuffer(b"".join([fetched["rayleigh"]] + bodies("rayleigh")), dtype="<f4")
    run_failures = [checks.check_no_repeated_window(uniform), checks.check_rayleigh(rayleigh)]
    if fetch_failures:
        run_failures.append([f"{fetch_failures} digest fetch requests failed"])
    else:
        gauss = np.frombuffer(fetched["gaussian"], dtype="<i2")[: config.gof_samples]
        run_failures += [checks.check_bits(fetched["uniform"]), checks.check_gaussian(gauss)]
    failures = [f for bad in run_failures for f in bad]
    n_bad = int(np.count_nonzero(~full))
    if n_bad:
        statuses = sorted({r[3] for r in results if r[3] != 200})
        failures.append(f"{n_bad} requests without a full 200 body (statuses {statuses})")
    attempted = len(plan) + len(DIGEST_FETCH)
    failed = min(attempted, n_bad + sum(1 for bad in run_failures if bad))

    window = t1 - t0
    served_bits = 8 * sum(len(r[4]) for r in results if r[3] == 200)
    digest = hashlib.sha256(b"".join(fetched[t] for t, _ in DIGEST_FETCH)).hexdigest()
    health = {
        "certifications": h1["certifications"] - h0["certifications"],
        "raw_samples": h1["raw_samples_consumed"] - h0["raw_samples_consumed"],
        "served_bytes": sum(h1["served_bytes"].values()) - sum(h0["served_bytes"].values()),
        "discarded_buffers": h1["discarded_buffers"] - h0["discarded_buffers"],
    }
    return {
        "setups": ready["setups"],
        "skipped": ready["skipped"],
        "window_s": window,
        "fill_s": fill_s,
        "fill_bytes": sum(filled["buffer_fill"].values()),
        "fill_raw": filled["raw_samples_consumed"],
        "latencies": lat,
        "late": late,
        "ok_share": float(np.count_nonzero(ok)) / len(plan),
        "served_bits": served_bits,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": final["peak_rss_mb"],
        "summary": final["summary"],
        "health": health,
        "requests": len(plan),
    }


def latency_ms(lat: np.ndarray, pct: float) -> float:
    """Median over SUB_WINDOWS consecutive slices (by due time) of each
    slice's percentile: one burst of host noise moves one slice only."""
    return float(np.median([np.percentile(part, pct) for part in np.array_split(lat, SUB_WINDOWS)])) * 1e3


def end_to_end(res: dict) -> dict:
    """The end-to-end metrics plus the latencies, which the trace run reports."""
    lat = res["latencies"]
    return {
        "setup_s": float(np.median(res["setups"])),
        "out_mbit_s": 8 * res["fill_bytes"] / res["fill_s"] / 1e6,
        "raw_msample_s": res["fill_raw"] / res["fill_s"] / 1e6,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": res["ok_share"],
        "p50_ms": latency_ms(lat, 50),
        "p99_ms": latency_ms(lat, 99),
    }
