"""Command-line interface.

Subcommands: simulate, certify, extract, test, bench, serve. All accept
-c/--config pointing at an INI file (defaults ship in-package); reports
are emitted as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .adc import CodeBlock, quantize_channel
from .config import ConfigError, PipelineConfig, load_config, write_config
from .gaussian import grid_step
from .pipeline import StartupError, bench, certify, run_pipeline
from .rayleigh import savitzky_golay
from .source import simulate_quadratures
from .stats import bit_tests, chi2_test, ks_test
from .bits import BitBlock

HISTOGRAM_BINS = 256  # bins of the Rayleigh histogram that extract --histogram-mode smooths


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive, finite number of seconds, got {text}")
    return value


def _significance(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be a significance level in (0, 1), got {text}")
    return value


def _config_from(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _cmd_simulate(args) -> int:
    cfg = _config_from(args)
    frame = simulate_quadratures(cfg.noise_model(), args.count, cfg.prng_seed)
    if args.format == "csv":
        with open(args.out + ".csv", "wb") as fh:
            fh.write(_csv_bytes(np.arange(args.count), frame.i_samples, frame.q_samples, header="index,I,Q"))
        print(f"wrote {args.out}.csv")
    elif args.format == "raw":
        frame.i_samples.astype("<f4").tofile(args.out + ".i.f32")
        frame.q_samples.astype("<f4").tofile(args.out + ".q.f32")
        print(f"wrote {args.out}.i.f32 / {args.out}.q.f32")
    else:  # codes
        spec = cfg.adc_spec()
        ci, cq = quantize_channel(frame.i_samples, spec), quantize_channel(frame.q_samples, spec)
        ci.tofile(args.out + ".i.i16")
        cq.tofile(args.out + ".q.i16")
        print(f"wrote {args.out}.i.i16 / {args.out}.q.i16 "
              f"(clamped {ci.clamped}/{cq.clamped})")
    return 0


def _cmd_certify(args) -> int:
    cfg = _config_from(args)
    file_args = (args.i_file, args.q_file, args.bg_i_file, args.bg_q_file)
    if any(file_args) and not all(file_args):
        print("certify from files needs all of --i, --q, --bg-i, --bg-q", file=sys.stderr)
        return 2
    try:
        record = background = None
        if any(file_args):
            i, q, bg_i, bg_q = [CodeBlock.fromfile(path, cfg.adc_spec()).codes for path in file_args]
            record, background = (i, q), (bg_i, bg_q)
        reports = certify(cfg, record, background)
    except (OSError, ValueError) as err:  # unreadable or bad code files, or records the bound rejects
        print(f"certify: {err}", file=sys.stderr)
        return 2
    payload = {ch: asdict(r) for ch, r in reports.items()}
    text = json.dumps(payload, indent=2)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_extract(args) -> int:
    for flag, given, used in (("--format csv", args.format == "csv", args.type != "uniform"),
                              ("--histogram-mode", args.histogram_mode, args.type == "rayleigh")):
        if given and not used:
            print(f"extract: {flag} does nothing for --type {args.type}", file=sys.stderr)
            return 2
    cfg = _config_from(args)
    if args.histogram_mode and cfg.sg_window > HISTOGRAM_BINS:
        print(f"extract: --histogram-mode smooths {HISTOGRAM_BINS} bins, narrower than "
              f"[extraction] sg_window = {cfg.sg_window}", file=sys.stderr)
        return 2
    run = run_pipeline(cfg, args.blocks, want={args.type})
    if args.histogram_mode:
        counts, edges = np.histogram(run.rayleigh, bins=HISTOGRAM_BINS)
        smoothed = savitzky_golay(counts.astype(np.float64), cfg.sg_window, cfg.sg_order)
        data = _csv_bytes(0.5 * (edges[:-1] + edges[1:]), counts, smoothed, header="bin_center,count,smoothed")
    elif args.format == "bin":
        data = run.wire(args.type, run.n_out)
    elif args.type == "gaussian":
        step = grid_step(run.n_out)
        data = _csv_bytes(run.gaussian_i * step, run.gaussian_q * step)
    else:
        data = _csv_bytes(run.rayleigh)
    if args.stdout:
        sys.stdout.buffer.write(data)
    else:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {len(data)} bytes to {args.out}")
    return 0


def _csv_bytes(*columns: np.ndarray, header: str | None = None) -> bytes:
    """Rows of the columns' values as Python numbers write them, after an optional header line."""
    lines = [header] if header else []
    lines += [",".join(map(repr, row)) for row in zip(*(column.tolist() for column in columns))]
    return ("\n".join(lines) + "\n").encode()


def _cmd_test(args) -> int:
    reports = []
    try:
        if args.bits_file:
            data = Path(args.bits_file).read_bytes()
            reports.extend(bit_tests(BitBlock.from_bytes(data), alpha=args.alpha))
        if args.samples_file:
            data = Path(args.samples_file).read_bytes()
            if len(data) % 4:
                raise ValueError(f"{args.samples_file}: {len(data)} bytes is not a whole number of float32s")
            samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
            reports.append(ks_test(samples, args.reference, alpha=args.alpha))
            reports.append(chi2_test(samples, args.reference, alpha=args.alpha))
    except (OSError, ValueError) as err:  # a missing or unreadable file, or an input unfit for its tests
        print(f"test: {err}", file=sys.stderr)
        return 2
    if not reports:
        print("nothing to test: pass --bits and/or --samples", file=sys.stderr)
        return 2
    print(json.dumps([asdict(r) for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_bench(args) -> int:
    cfg = _config_from(args)
    print(json.dumps(bench(cfg, seconds=args.seconds), indent=2))
    return 0


def _cmd_serve(args) -> int:
    from .service import RandomService  # the HTTP stack loads only for the subcommand that serves

    cfg = _config_from(args)
    cfg = replace(cfg, listen=args.listen or cfg.listen)
    svc = RandomService(cfg)
    svc.start()
    print(f"serving on {cfg.listen.rsplit(':', 1)[0]}:{svc.port} (ctrl-c to stop)")
    try:
        import time

        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        svc.stop()
    return 0


def _cmd_init_config(args) -> int:
    write_config(PipelineConfig(), args.out)
    print(f"wrote default config to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="triqrng", description=__doc__)
    ap.add_argument("-c", "--config", help="INI config file (defaults built in)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="generate an I/Q record")
    p.add_argument("-n", "--count", type=_positive_int, default=1 << 16)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--format", choices=["raw", "csv", "codes"], default="codes")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("certify", help="emit per-channel entropy reports as JSON")
    p.add_argument("--json-out", help="also write the JSON document here")
    p.add_argument("--i", dest="i_file", help="int16-LE code file, I channel")
    p.add_argument("--q", dest="q_file", help="int16-LE code file, Q channel")
    p.add_argument("--bg-i", dest="bg_i_file", help="int16-LE LO-off background, I")
    p.add_argument("--bg-q", dest="bg_q_file", help="int16-LE LO-off background, Q")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("extract", help="run the pipeline and emit one output type")
    p.add_argument("--type", choices=["uniform", "gaussian", "rayleigh"], required=True)
    p.add_argument("--blocks", type=_positive_int, default=4096, help="1536-bit blocks per channel")
    p.add_argument("--out", default="out.bin")
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--format", choices=["bin", "csv"], default="bin")
    p.add_argument("--histogram-mode", action="store_true",
                   help="rayleigh only: emit a smoothed histogram CSV instead of the stream")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("test", help="statistical tests on bit or sample files "
                       "(exit 0 all passed, 1 a test failed, 2 unusable input)")
    p.add_argument("--bits", dest="bits_file", help="packed bit file (MSB-first)")
    p.add_argument("--samples", dest="samples_file", help="float32-LE sample file")
    p.add_argument("--reference", choices=["gaussian", "rayleigh", "uniform"], default="gaussian")
    p.add_argument("--alpha", type=_significance, default=0.01)
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("bench", help="production-path throughput benchmark (JSON)")
    p.add_argument("--seconds", type=_positive_seconds, default=2.0)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("serve", help="start the local HTTP bit service")
    p.add_argument("--listen", help="host:port (default: [service] listen)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("init-config", help="write the default config file")
    p.add_argument("--out", default="triqrng.ini")
    p.set_defaults(fn=_cmd_init_config)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StartupError) as err:
        print(f"{args.cmd}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
