#!/usr/bin/env bash
# CLI smoke as a process: each subcommand run the way a user runs it, from
# the repo's own sources. Usage: bash scripts/cli_smoke.sh (from any directory).
set -euo pipefail
cd "$(dirname "$0")/.."
cli() { PYTHONPATH=src python -m triqrng.cli "$@"; }
# expect_exit CODE ARGS...: the CLI run with ARGS must exit with CODE
expect_exit() {
  local want=$1 rc=0
  shift
  cli "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "expected exit $want, got $rc: triqrng $*" >&2
    return 1
  fi
}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cli init-config --out "$dir/smoke.ini"
# the source's spectral factor is a deterministic function of the config:
# fresh processes simulate the same voltages, also through a 16-tap filter
cli -c "$dir/smoke.ini" simulate -n 65536 --format raw --out "$dir/v" > /dev/null
cli -c "$dir/smoke.ini" simulate -n 65536 --format raw --out "$dir/v2" > /dev/null
cmp "$dir/v.i.f32" "$dir/v2.i.f32"
cmp "$dir/v.q.f32" "$dir/v2.q.f32"
# the record's CSV goes through the CLI's one CSV writer: the same bytes from
# fresh processes, LF line ends, and a plain float in every I and Q field
cli -c "$dir/smoke.ini" simulate -n 4096 --format csv --out "$dir/v" > /dev/null
cli -c "$dir/smoke.ini" simulate -n 4096 --format csv --out "$dir/v2" > /dev/null
cmp "$dir/v.csv" "$dir/v2.csv"
python - "$dir/v.csv" <<'PY'
import sys
data = open(sys.argv[1], "rb").read()
assert b"\r" not in data
lines = data.decode().split("\n")
assert lines.pop() == "" and len(lines) == 4097 and lines[0] == "index,I,Q", lines[:2]
for k, line in enumerate(lines[1:]):
    index, i, q = line.split(",")
    assert int(index) == k
    float(i), float(q)
PY
sed 's/^filter_taps = .*/filter_taps = 0.800000031835, 0.480000019101, 0.28800001146, 0.172800006876, 0.103680004126, 0.0622080024755, 0.0373248014853, 0.0223948808912, 0.0134369285347, 0.00806215712082, 0.00483729427249, 0.0029023765635, 0.0017414259381, 0.00104485556286, 0.000626913337715, 0.000376148002629/' \
  "$dir/smoke.ini" > "$dir/taps16.ini"
grep -q '^filter_taps = 0.800000031835, .*, 0.000376148002629$' "$dir/taps16.ini"
cli -c "$dir/taps16.ini" extract --type uniform --out "$dir/t16.bin"
cli -c "$dir/taps16.ini" extract --type uniform --out "$dir/t16b.bin"
cmp "$dir/t16.bin" "$dir/t16b.bin"
cli -c "$dir/smoke.ini" extract --type uniform --out "$dir/bits.bin"
# the exit code is the verdict: 0 when every test passes at alpha, 1 when one
# fails, which a correct stream does by chance (about 4% of streams); so the
# smoke checks the contract, and rates are for the multi-seed tests in tests/
rc=0
cli test --bits "$dir/bits.bin" > "$dir/bits.json" || rc=$?
python - "$dir/bits.json" "$rc" <<'PY'
import json, sys
reports, rc = json.load(open(sys.argv[1])), int(sys.argv[2])
assert [r["test_name"] for r in reports] == ["monobit", "block-frequency", "runs", "longest-run"], reports
assert all(0.0 <= r["p_value"] <= 1.0 and r["passed"] == (r["p_value"] >= r["alpha"]) for r in reports), reports
assert rc == (0 if all(r["passed"] for r in reports) else 1), (rc, reports)
PY
# output is a function of the config alone: a fresh process gives the same bytes
cli -c "$dir/smoke.ini" extract --type uniform --out "$dir/bits2.bin"
cmp "$dir/bits.bin" "$dir/bits2.bin"
cli -c "$dir/smoke.ini" extract --type gaussian --out "$dir/g.i16"
cli -c "$dir/smoke.ini" extract --type gaussian --out "$dir/g2.i16"
cmp "$dir/g.i16" "$dir/g2.i16"
# the pool passes are exact integer sums, so the BLAS thread count does not
# change the Gaussian bytes
OPENBLAS_NUM_THREADS=1 cli -c "$dir/smoke.ini" extract --type gaussian --out "$dir/g1.i16"
cmp "$dir/g.i16" "$dir/g1.i16"
cli -c "$dir/smoke.ini" extract --type gaussian --format csv --out "$dir/g.csv"
cli -c "$dir/smoke.ini" extract --type gaussian --format csv --out "$dir/g2.csv"
cmp "$dir/g.csv" "$dir/g2.csv"
cli -c "$dir/smoke.ini" extract --type rayleigh --out "$dir/r.f32"
cli -c "$dir/smoke.ini" extract --type rayleigh --out "$dir/r2.f32"
cmp "$dir/r.f32" "$dir/r2.f32"
# an option that does nothing for the chosen type is refused, and nothing is written
expect_exit 2 -c "$dir/smoke.ini" extract --type uniform --format csv --out "$dir/u.csv"
test ! -e "$dir/u.csv"
expect_exit 2 -c "$dir/smoke.ini" extract --type gaussian --histogram-mode --out "$dir/h.csv"
test ! -e "$dir/h.csv"
# a smoothing window wider than the histogram's 256 bins is refused before the pipeline starts
sed -e 's/^block_n = .*/block_n = 8192/' -e 's/^block_m = .*/block_m = 4096/' -e 's/^sg_window = .*/sg_window = 301/' \
  "$dir/smoke.ini" > "$dir/wide.ini"
grep -q '^sg_window = 301$' "$dir/wide.ini"
expect_exit 2 -c "$dir/wide.ini" extract --type rayleigh --histogram-mode --out "$dir/wide.csv"
test ! -e "$dir/wide.csv"
# a significance level outside (0, 1) is refused while the arguments are parsed
expect_exit 2 test --bits "$dir/bits.bin" --alpha 0
# a missing input, or samples that are not whole float32s, is a usage error, not a failed test
expect_exit 2 test --bits "$dir/missing.bin"
printf '\0\0\0\0\0' > "$dir/five.f32"
expect_exit 2 test --samples "$dir/five.f32"
sed 's/^block_m = .*/block_m = 1248/' "$dir/smoke.ini" > "$dir/greedy.ini"
expect_exit 2 -c "$dir/greedy.ini" extract --type uniform --out "$dir/greedy.bin"
sed 's/^block_n = /blok_n = /' "$dir/smoke.ini" > "$dir/misspelt.ini"
expect_exit 2 -c "$dir/misspelt.ini" extract --type uniform --out "$dir/misspelt.bin"
# every ADC code is an int16 and the one-step bin lookup needs dnl_max <= 0.45:
# a deeper ADC (1632 bits = 96 whole 17-bit codes) or a wider DNL bound is refused at load
sed -e 's/^bits = .*/bits = 17/' -e 's/^block_n = .*/block_n = 1632/' "$dir/smoke.ini" > "$dir/bits17.ini"
grep -q '^bits = 17$' "$dir/bits17.ini"
expect_exit 2 -c "$dir/bits17.ini" extract --type uniform --out "$dir/bits17.bin"
test ! -e "$dir/bits17.bin"
sed 's/^dnl_max = .*/dnl_max = 0.46/' "$dir/smoke.ini" > "$dir/dnl46.ini"
grep -q '^dnl_max = 0.46$' "$dir/dnl46.ini"
expect_exit 2 -c "$dir/dnl46.ini" simulate -n 4096 --format codes --out "$dir/dnl46"
test ! -e "$dir/dnl46.i.i16"
# certification is a function of the config alone: a fresh process writes the same JSON
cli -c "$dir/smoke.ini" certify --json-out "$dir/cert.json" > /dev/null
cli -c "$dir/smoke.ini" certify --json-out "$dir/cert2.json" > /dev/null
cmp "$dir/cert.json" "$dir/cert2.json"
# code files certify through the same path as the records certify simulates:
# the startup record at prng_seed and the LO-off background at prng_seed + 10000
samples=$(sed -n 's/^certify_samples = //p' "$dir/smoke.ini")
seed=$(sed -n 's/^prng_seed = //p' "$dir/smoke.ini")
sed -e 's/^lo_power_mw = .*/lo_power_mw = 0.0/' -e "s/^prng_seed = .*/prng_seed = $((seed + 10000))/" \
  "$dir/smoke.ini" > "$dir/lo_off.ini"
cli -c "$dir/smoke.ini" simulate -n "$samples" --format codes --out "$dir/sig" > /dev/null
cli -c "$dir/lo_off.ini" simulate -n "$samples" --format codes --out "$dir/bg" > /dev/null
cli -c "$dir/smoke.ini" certify --i "$dir/sig.i.i16" --q "$dir/sig.q.i16" \
  --bg-i "$dir/bg.i.i16" --bg-q "$dir/bg.q.i16" --json-out "$dir/cert_files.json" > /dev/null
cmp "$dir/cert.json" "$dir/cert_files.json"
# a code file that ends in part of a code is refused, not read short
{ cat "$dir/sig.i.i16"; printf '\0'; } > "$dir/odd.i16"
expect_exit 2 -c "$dir/smoke.ini" certify --i "$dir/odd.i16" --q "$dir/sig.q.i16" \
  --bg-i "$dir/bg.i.i16" --bg-q "$dir/bg.q.i16"
# a key the config no longer has (the Welch segment length) is refused
sed 's/^\[pipeline\]$/[pipeline]\npsd_segment = 4096/' "$dir/smoke.ini" > "$dir/old.ini"
grep -q '^psd_segment = 4096$' "$dir/old.ini"
expect_exit 2 -c "$dir/old.ini" certify
# the runtime needs numpy alone, and only serve loads the HTTP stack: in a
# Python where `import scipy`, or `import http.server`, fails, certify and
# extract write the same bytes and test keeps its exit-code contract
without() {  # without MODULE ARGS...: the CLI run with ARGS where MODULE cannot be imported
  PYTHONPATH=src python -c 'import sys; sys.modules[sys.argv.pop(1)] = None
from triqrng.cli import main; sys.exit(main(sys.argv[1:]))' "$@"
}
for module in scipy http.server; do
  without "$module" -c "$dir/smoke.ini" certify --json-out "$dir/cert_no.json" > /dev/null
  cmp "$dir/cert.json" "$dir/cert_no.json"
  without "$module" -c "$dir/smoke.ini" extract --type uniform --out "$dir/bits_no.bin"
  cmp "$dir/bits.bin" "$dir/bits_no.bin"
  rc_no=0
  without "$module" test --bits "$dir/bits.bin" > "$dir/bits_no.json" || rc_no=$?
  [ "$rc_no" -eq "$rc" ]
  cmp "$dir/bits.json" "$dir/bits_no.json"
done
echo "CLI smoke passed"
