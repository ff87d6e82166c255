"""triqrng benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload uniform-recert --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of stdout is the result object
({"correct", "attempted", "failed", "metrics"}): the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
holds the details: machine, output digests, /health counts, failures.

--trace 1 runs the workload twice on the same seed: untraced, then with
the layer wrappers of tracing.py installed. The traced output digest must
equal the untraced one; the difference of the end-to-end result is the
tracing overhead. Spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("uniform-recert", "shaped-steady", "service-mixed")
UNITS = {
    "setup_s": "s", "out_mbit_s": "Mbit/s", "raw_msample_s": "Msamples/s", "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER_UNITS = {
    "toeplitz.self_s": "s", "toeplitz.blocks": "count", "bits.self_s": "s", "bits.bits_out": "count",
    "adc.self_s": "s", "adc.samples": "count", "adc.clamped": "count",
    "pipeline.certify.total_s": "s", "pipeline.certify.count": "count",
    "source.psd_estimate.self_s": "s", "entropy.self_s": "s", "entropy.solve_g_star.calls": "count",
    "pipeline.certify_share": "ratio",
    "gaussian.self_s": "s", "gaussian.pools": "count", "gaussian.values": "count",
    "rayleigh.self_s": "s", "rayleigh.values": "count",
    "source.self_s": "s", "source.samples": "count", "pipeline.self_s": "s", "pipeline.batches": "count",
    "stats.self_s": "s", "stats.gate_calls": "count", "stats.gate_failures": "count",
    "stats.gate_pass_ratio": "ratio",
    "service.take_wait_s": "s", "service.put_wait_s": "s", "service.producer_busy_share": "ratio",
    "service.requests": "count", "service.status_503": "count", "service.served_bytes": "count",
    "service.discarded_buffers": "count", "service.certifications": "count",
    "service.raw_samples": "count", "service.gen_late_p99_ms": "ms",
    "service.p50_ms": "ms", "service.p99_ms": "ms",
    "trace.window_s": "s", "trace.overhead_share": "ratio",
}


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def per_layer(summary: dict, window_s: float, service: dict | None) -> dict:
    """The per-layer metrics from a span summary over a window of window_s;
    `service` holds the client-side counts of service-mixed, else None."""
    import tracing

    def total(name, key="total_s"):
        return tracing.stat(summary, name, key)

    gate_calls = total("stats.gate", "calls")
    gate_failures = total("stats.gate", "flagged")
    certify_s = total("pipeline.certify")
    return {
        "toeplitz.self_s": tracing.layer_self(summary, "toeplitz"),
        "toeplitz.blocks": total("toeplitz.extract_batch", "n"),
        "bits.self_s": tracing.layer_self(summary, "bits"),
        "bits.bits_out": total("bits.codes_to_bits", "n"),
        "adc.self_s": tracing.layer_self(summary, "adc"),
        "adc.samples": total("adc.quantize_channel", "n"),
        "adc.clamped": total("adc.quantize_channel", "flagged"),
        "pipeline.certify.total_s": certify_s,
        "pipeline.certify.count": total("pipeline.certify", "calls"),
        "source.psd_estimate.self_s": total("source.psd_estimate", "self_s"),
        "entropy.self_s": tracing.layer_self(summary, "entropy"),
        "entropy.solve_g_star.calls": total("entropy.solve_g_star", "calls"),
        "pipeline.certify_share": certify_s / window_s,
        "gaussian.self_s": tracing.layer_self(summary, "gaussian"),
        "gaussian.pools": total("gaussian.normalize_pool", "calls"),
        "gaussian.values": total("gaussian.requantize", "n"),
        "rayleigh.self_s": tracing.layer_self(summary, "rayleigh"),
        "rayleigh.values": total("rayleigh.rayleigh_raw", "n"),
        "source.self_s": tracing.layer_self(summary, "source"),
        "source.samples": total("source.simulate", "n"),
        "pipeline.self_s": tracing.layer_self(summary, "pipeline"),
        "pipeline.batches": total("pipeline.process_blocks", "calls"),
        "stats.self_s": tracing.layer_self(summary, "stats"),
        "stats.gate_calls": gate_calls,
        "stats.gate_failures": gate_failures,
        "stats.gate_pass_ratio": (gate_calls - gate_failures) / gate_calls if gate_calls else 0.0,
        "service.take_wait_s": total("service.take"),
        "service.put_wait_s": total("service.put"),
        "service.producer_busy_share":
            (total("pipeline.process_blocks") + total("stats.gate")) / window_s if service else 0.0,
        "service.requests": total("service.handle", "calls"),
        "service.status_503": total("service.send_json", "flagged"),
        "service.served_bytes": service["served_bytes"] if service else 0,
        "service.discarded_buffers": service["discarded_buffers"] if service else 0,
        "service.certifications": service["certifications"] if service else 0,
        "service.raw_samples": service["raw_samples"] if service else 0,
        "service.gen_late_p99_ms": service["gen_late_p99_ms"] if service else 0.0,
        "service.p50_ms": service["p50_ms"] if service else 0.0,
        "service.p99_ms": service["p99_ms"] if service else 0.0,
        "trace.window_s": window_s,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import batch
    import service_load
    import tracing

    os.makedirs(OUT, exist_ok=True)
    if workload == "service-mixed":
        res = service_load.run_pass(seed, seconds, trace=False)
        e2e = service_load.end_to_end(res)
        details = {"health": res["health"], "requests": res["requests"], "fill_s": res["fill_s"],
                   "served_mbit_s": res["served_bits"] / res["window_s"] / 1e6,
                   "p50_ms": e2e["p50_ms"], "p99_ms": e2e["p99_ms"],
                   "gen_late_p99_ms": float(np.percentile(res["late"], 99)) * 1e3}
    else:
        res = batch.run_pass(workload, seed, seconds, batch.SETUP_REPEATS if not trace else 1)
        e2e = batch.end_to_end(res)
        details = {"calls": res["attempted"], "windows": len(res["windows"]),
                   "certifications": res["certifications"], "raw_samples": res["raw_samples"],
                   "out_mvalue_s": e2e.pop("out_mvalue_s")}
    details.update(digest=res["digest"],
                   latency_quantiles_ms={str(q): float(np.percentile(res["latencies"], q)) * 1e3
                                         for q in (50, 90, 95, 99, 99.5)})
    failures = list(res["failures"])
    attempted, failed = res["attempted"], res["failed"]
    metrics = {name: e2e[name] for name in UNITS}
    units = UNITS

    if trace:
        spans_path = os.path.join(OUT, f"{workload}.spans.jsonl")
        if workload == "service-mixed":
            server_spans = os.path.join(OUT, f"{workload}.server.spans.jsonl")
            tres = service_load.run_pass(seed, seconds, trace=True, spans_path=server_spans)
            te2e = service_load.end_to_end(tres)
            window_s = tres["window_s"]
            summary = tres["summary"] or {}
            late = float(np.percentile(tres["late"], 99)) * 1e3
            # latencies of the untraced pass: tracing must not colour them
            service = dict(tres["health"], gen_late_p99_ms=late,
                           p50_ms=e2e["p50_ms"], p99_ms=e2e["p99_ms"])
            overhead = te2e["p50_ms"] / e2e["p50_ms"] - 1.0
            skipped = tres["skipped"]
        else:
            tracer = tracing.Tracer()
            tres = batch.run_pass(workload, seed, seconds, 1, tracer=tracer)
            te2e = batch.end_to_end(tres)
            window_s = tres["t1"] - tres["t0"]
            summary = tracing.summarize(tracer.spans, tres["t0"], tres["t1"])
            tracer.write(spans_path)
            service = None
            overhead = 1.0 - te2e["out_mbit_s"] / e2e["out_mbit_s"]
            skipped = tracer.skipped
        if tres["digest"] != res["digest"]:
            failures.append(f"traced digest {tres['digest']} != untraced {res['digest']}")
            tres["failed"] += 1
        failures += tres["failures"]
        attempted += tres["attempted"]
        failed += tres["failed"]
        metrics = per_layer(summary, window_s, service)
        metrics["trace.overhead_share"] = overhead
        units = PER_LAYER_UNITS
        details.update(traced_digest=tres["digest"], traced_end_to_end=te2e, untraced_end_to_end=e2e,
                       unwrapped=skipped, layers=summary)

    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details["failures"] = failures[:20]
    return result, details


def main() -> int:
    ap = argparse.ArgumentParser(description="triqrng benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "triqrng", "__init__.py")):
        print(f"no triqrng sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_info(), **details}
    print(json.dumps(details, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
