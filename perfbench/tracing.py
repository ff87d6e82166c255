"""Span tracing of the triqrng layers, installed from outside the package.

Each wrapper replaces one public function or method at the name its caller
looks up (``triqrng.pipeline.quantize_channel`` is the binding Pipeline
uses, ``triqrng.adc.quantize_channel`` is not). A span is recorded as
(id, name, start, end, parent id, batch or request id, work count, flagged
count) and kept in memory until the run writes it out. The layer of a span is the
first component of its name, which is the triqrng module the wrapped code
lives in.

Names that no longer exist in the package are skipped and listed, so the
benchmark keeps running after a refactor moves them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

# Each entry: module, attribute, span name, new-op flag, and a function of
# (args, result) giving the span's (work count, flagged count). The work
# count is what the layer processed; the flagged count marks outcomes such
# as clamped samples, failed gate evaluations or 503 responses.
WRAPS = [
    ("triqrng.pipeline", "simulate_quadratures", "source.simulate", False, lambda a, r: (2 * len(r), 0)),
    ("triqrng.pipeline", "psd_estimate", "source.psd_estimate", False, None),
    ("triqrng.pipeline", "quantize_channel", "adc.quantize_channel", False,
     lambda a, r: (len(r), r.clamped)),
    ("triqrng.pipeline", "dequantize", "adc.dequantize", False, None),
    ("triqrng.pipeline", "codes_to_bits", "bits.codes_to_bits", False, lambda a, r: (r.len, 0)),
    ("triqrng.bits", "BitBlock.bits", "bits.unpack", False, None),
    ("triqrng.toeplitz", "ToeplitzExtractor.extract_batch", "toeplitz.extract_batch", False,
     lambda a, r: (r.shape[0], 0)),
    ("triqrng.pipeline", "obtain_seed", "toeplitz.obtain_seed", False, None),
    ("triqrng.pipeline", "conditional_variance", "entropy.conditional_variance", False, None),
    ("triqrng.pipeline", "effective_photon_number", "entropy.effective_photon_number", False, None),
    ("triqrng.pipeline", "min_entropy_nonlinear", "entropy.min_entropy_nonlinear", False, None),
    ("triqrng.pipeline", "extractable_length", "entropy.extractable_length", False, None),
    ("triqrng.pipeline", "solve_g_star", "entropy.solve_g_star", False, None),
    ("triqrng.entropy", "solve_g_star", "entropy.solve_g_star", False, None),
    ("triqrng.pipeline", "msb_truncate", "gaussian.msb_truncate", False, None),
    ("triqrng.pipeline", "normalize_pool", "gaussian.normalize_pool", False, None),
    ("triqrng.pipeline", "wallace_pass", "gaussian.wallace_pass", False, None),
    ("triqrng.pipeline", "requantize", "gaussian.requantize", False, lambda a, r: (np.size(r), 0)),
    ("triqrng.pipeline", "rayleigh_raw", "rayleigh.rayleigh_raw", False, lambda a, r: (np.size(r), 0)),
    ("triqrng.pipeline", "savitzky_golay", "rayleigh.savitzky_golay", False, None),
    ("triqrng.pipeline", "certify", "pipeline.certify", False, None),
    ("triqrng.pipeline", "certify_channel", "pipeline.certify_channel", False, None),
    ("triqrng.pipeline", "Pipeline.process_blocks", "pipeline.process_blocks", True,
     lambda a, r: (int(a[1]), 0)),
    ("triqrng.service", "bit_tests", "stats.gate", False,
     lambda a, r: (1, int(not all(t.passed for t in r)))),
    ("triqrng.service", "_ByteBuffer.take", "service.take", False, lambda a, r: (len(r or b""), 0)),
    ("triqrng.service", "_ByteBuffer.put", "service.put", False, lambda a, r: (len(a[1]), 0)),
    ("triqrng.service", "RandomService._handle", "service.handle", True, None),
    ("triqrng.service", "RandomService._send_json", "service.send_json", False,
     lambda a, r: (1, int(a[1] == 503))),
]


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.skipped: list[str] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, new_op, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = None, (next(tracer._ops) if new_op else None)
            sid = next(tracer._ids)
            stack.append((sid, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n, flagged = count(args, result) if count else (1, 0)
            tracer.spans.append((sid, name, start, end, parent, op, n, flagged))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, new_op, count in WRAPS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(leaf) if owner is not None else None
            if raw is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, new_op, count))
            else:
                new = self._wrap(raw, name, new_op, count)
            setattr(owner, leaf, new)
            self._restore.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()

    def write(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, op, n, flagged."""
        keys = ("id", "name", "start", "end", "parent", "op", "n", "flagged")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans, t0: float, t1: float) -> dict:
    """Per-name totals over spans that start inside [t0, t1).

    Self time is a span's duration minus the durations of its direct
    children; children run on the parent's thread inside its interval.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "flagged": 0})
    for sid, name, start, end, _, _, n, flagged in spans:
        if not t0 <= start < t1:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(sid, 0.0)
        entry["n"] += int(n)
        entry["flagged"] += int(flagged)
    return dict(out)


def layer_self(summary: dict, layer: str) -> float:
    return sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)


def stat(summary: dict, name: str, key: str):
    return summary.get(name, {}).get(key, 0)
