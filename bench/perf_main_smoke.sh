#!/bin/sh
# Smoke test of a perf binary's shared main: each --benchmark_format
# selects its display, and --json-out writes the nsrel-bench-v1 document
# alongside it.
#
#   sh bench/perf_main_smoke.sh build/bench/perf_codes OUT.json
set -eu
binary=$1
out=$2

run() {
  "$binary" --benchmark_filter='BM_RsEncode/4096' \
    --benchmark_min_time=0.001 --benchmark_format="$1" --json-out "$out"
}

csv=$(run csv)
case $csv in
  name,iterations,real_time*) ;;
  *) echo "csv display missing: $csv" >&2; exit 1 ;;
esac
grep -q '"schema": "nsrel-bench-v1"' "$out"

json=$(run json)
case $json in
  '{'*'"context"'*'"benchmarks"'*) ;;
  *) echo "json display missing: $json" >&2; exit 1 ;;
esac
grep -q '"schema": "nsrel-bench-v1"' "$out"

console=$(run console)
case $console in
  *BM_RsEncode/4096*) ;;
  *) echo "console display missing: $console" >&2; exit 1 ;;
esac
