"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads uniform-recert service-mixed --seeds 1 2 3 4 5
    python3 perfbench/spread.py --runs 10 --write perfbench/baseline.json
    python3 perfbench/spread.py --runs 1 --trace 1 --write perfbench/baseline_traced.json

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (third minus first quartile, as a share of the
median, from statistics.quantiles(values, n=4)) next to the metric's bound
in BENCHMARK.json. A spread must stay below a third of its bound, setup_s
excepted. With --trace 1 it records the per-layer metrics of each run
instead. Runs execute one after another from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--runs", type=int, default=5, help="seeds 1..runs when --seeds is not given")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="write every value and summary to this JSON file")
    args = ap.parse_args()
    seeds = args.seeds or list(range(1, args.runs + 1))

    report = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    if args.trace:
        for workload in args.workloads:
            for seed in seeds:
                details, result = run_once(workload, seed, args.seconds, trace=1)
                report.setdefault("machine", details["machine"])
                report["workloads"].setdefault(workload, []).append({
                    "seed": seed, "correct": result["correct"], "failed": result["failed"],
                    "attempted": result["attempted"], "failures": details["failures"],
                    "digests_equal": details["digest"] == details["traced_digest"],
                    "untraced_end_to_end": details["untraced_end_to_end"],
                    "traced_end_to_end": details["traced_end_to_end"],
                    "unwrapped": details["unwrapped"],
                    "per_layer": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} seed {seed}: traced, failed={result['failed']}/{result['attempted']}",
                      flush=True)
        if args.write:
            with open(args.write, "w") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
        return 0

    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        runs = []
        for seed in seeds:
            details, result = run_once(workload, seed, args.seconds)
            report.setdefault("machine", details["machine"])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "digest": details["digest"],
                         "latency_quantiles_ms": details["latency_quantiles_ms"],
                         "service_p50_p99_ms": [details.get("p50_ms"), details.get("p99_ms")],
                         "failures": details["failures"]})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items())
                + f" failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"], "values": v}
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above bound/3"
            print(f"  {m['name']:>14}: median {med:.5g} {m['unit']}, spread {spread:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
