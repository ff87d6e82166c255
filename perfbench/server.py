"""Server process of the service-mixed workload.

Starts RandomService on the default config (prng_seed from --seed) in this
process, so that its producer and handlers contend only with each other,
and talks to the load client over stdin/stdout, one JSON object a line:

    stdout  {"port": ..., "setups": [...], "skipped": [...]}   port bound
    stdin   {"t0": ..., "t1": ...}       timed window, time.perf_counter()
    stdout  {"peak_rss_mb": ..., "summary": {...} or null}      after stop

time.perf_counter() reads the system-wide monotonic clock on Linux, so the
two processes agree on the window. With --trace 1 the layer wrappers are
installed before the service is built and the spans go to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from triqrng.config import PipelineConfig  # noqa: E402
from triqrng.service import RandomService  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where --trace 1 writes its spans (JSON lines)")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    config = PipelineConfig(prng_seed=args.seed, listen="127.0.0.1:0")
    setups = []
    for k in range(SETUP_REPEATS):
        # only the last instance runs its producer and serves the load
        svc = RandomService(config, producer_enabled=k == SETUP_REPEATS - 1)
        t = time.perf_counter()
        svc.start()
        setups.append(time.perf_counter() - t)
        if k < SETUP_REPEATS - 1:
            svc.stop()
    skipped = tracer.skipped if tracer is not None else []
    print(json.dumps({"port": svc.port, "setups": setups, "skipped": skipped}), flush=True)

    line = sys.stdin.readline()  # empty when the client went away
    svc.stop()
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "summary": None}
    if line.strip():
        window = json.loads(line)
        if tracer is not None:
            result["summary"] = tracing.summarize(tracer.spans, window["t0"], window["t1"])
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
