#!/usr/bin/env bash
# Tracked perf harness: run the quick deterministic benches and write the
# BENCH_*.json trajectory files at the repo root.
#
#   tools/run_bench.sh [--quick] [--build-dir DIR] [--out-dir DIR]
#
# --quick is the default (and the mode CI runs); it selects each bench's
# fixed, seeded workload so the JSON is comparable across commits on the
# same machine. The JSON files are committed: every PR records the perf
# it was measured at (see README "Performance").
set -euo pipefail

build_dir=build
out_dir=.
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) shift ;;  # default; accepted for symmetry with CI
    --build-dir) build_dir=$2; shift 2 ;;
    --out-dir) out_dir=$2; shift 2 ;;
    *) echo "usage: $0 [--quick] [--build-dir DIR] [--out-dir DIR]" >&2
       exit 2 ;;
  esac
done

repo_root=$(cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

for bench in bench_pipeline bench_cpu_aligners; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not built (configure with" \
         "-DGENASMX_BUILD_BENCH=ON and build first)" >&2
    exit 1
  fi
done

"$build_dir"/bench/bench_pipeline --quick \
  --json="$out_dir/BENCH_pipeline.json"
"$build_dir"/bench/bench_cpu_aligners --quick \
  --json="$out_dir/BENCH_cpu_aligners.json"

# Server round-trip bench: a resident genasmx_mapd under a seeded
# concurrent loadgen run (8 connections, mixed request sizes). The JSON
# records client-observed p50/p90/p99 latency and reads/sec through the
# full socket + admission + coalescing path — the resident-serving
# counterpart of BENCH_pipeline's in-process numbers.
for tool in genasmx_simulate genasmx_index genasmx_mapd genasmx_loadgen; do
  if [[ ! -x "$build_dir/$tool" ]]; then
    echo "error: $build_dir/$tool not built" >&2
    exit 1
  fi
done
srv_tmp=$(mktemp -d)
mapd_pid=
cleanup_server_bench() {
  [[ -n $mapd_pid ]] && kill -9 "$mapd_pid" 2>/dev/null || true
  rm -rf "$srv_tmp"
}
trap cleanup_server_bench EXIT

"$build_dir"/genasmx_simulate --out "$srv_tmp/bench" \
  --genome=300000 --contigs=2 --reads=600 --length=1200 --seed=42
"$build_dir"/genasmx_index --ref "$srv_tmp/bench.fa" \
  --out "$srv_tmp/bench.gxi"
"$build_dir"/genasmx_mapd --index "$srv_tmp/bench.gxi" \
  --unix "$srv_tmp/mapd.sock" --threads 4 \
  --stats-json "$srv_tmp/mapd.stats.json" 2>"$srv_tmp/mapd.log" &
mapd_pid=$!
for _ in $(seq 1 200); do
  [[ -S "$srv_tmp/mapd.sock" ]] && break
  sleep 0.05
done
[[ -S "$srv_tmp/mapd.sock" ]] || {
  echo "error: genasmx_mapd did not come up:" >&2
  cat "$srv_tmp/mapd.log" >&2
  exit 1
}
"$build_dir"/genasmx_loadgen --unix "$srv_tmp/mapd.sock" \
  --input "$srv_tmp/bench.reads.fq" --connections 8 \
  --reads-min 1 --reads-max 16 --seed 42 \
  --json "$out_dir/BENCH_server.json"
kill -TERM "$mapd_pid"
wait "$mapd_pid"
mapd_pid=

# Fail on malformed JSON so CI catches emitter regressions.
if command -v python3 >/dev/null 2>&1; then
  for f in "$out_dir"/BENCH_pipeline.json "$out_dir"/BENCH_cpu_aligners.json \
           "$out_dir"/BENCH_server.json; do
    python3 -m json.tool "$f" >/dev/null
  done
  echo "JSON validated: BENCH_pipeline.json BENCH_cpu_aligners.json" \
       "BENCH_server.json"
else
  echo "warning: python3 not found, skipping JSON validation" >&2
fi
