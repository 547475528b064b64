#!/bin/sh
# Runs the benchmarks that bench/baseline/ pins and diffs each result
# against its baseline with tools/benchdiff.py; --update rewrites the
# baselines instead. Results are written to the current directory.
#
#   tools/bench_baseline.sh ebench BENCH_DIR [--update]
#     The simulated-time e-benches built in BENCH_DIR (a build tree's
#     bench/), then the fanning ones again with PBC_BENCH_JOBS=1: fan-out
#     must never change a reported number (bench/bench_harness.h).
#   tools/bench_baseline.sh perfbench [--update]
#     Every perfbench workload at seed 1 untraced and at seed 5 traced.
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
update=
status=0

check() {  # check RESULT BASELINE_NAME
  python3 "$repo/tools/benchdiff.py" "$1" "$repo/bench/baseline/$2.txt" \
    $update || status=1
}

ebench() {  # ebench NAME
  rm -f "BENCH_$1.json"
  "$bin/bench_$1" --benchmark_min_time=0.001 > /dev/null || status=1
  check "BENCH_$1.json" "$1"
}

case "${1:-}" in
  ebench)
    bin=${2:?BENCH_DIR}
    update=${3:-}
    for b in e2_contention e3_xov_variants e4_consensus e6_caper \
        e8_sharding e9_cross_shard e12_faults; do
      ebench "$b"
    done
    export PBC_BENCH_JOBS=1
    for b in e4_consensus e6_caper e8_sharding e9_cross_shard e12_faults; do
      ebench "$b"
    done
    ;;
  perfbench)
    update=${2:-}
    for w in bft-order fabric-pipeline crash-recover; do
      python3 "$repo/perfbench/run.py" --workload "$w" --seed 1 --seconds 1 \
        --trace 0 > "perfbench-smoke-$w.txt" || status=1
      check "perfbench-smoke-$w.txt" "perfbench-$w"
      python3 "$repo/perfbench/run.py" --workload "$w" --seed 5 --seconds 1 \
        --trace 1 > "perfbench-smoke-$w-trace.txt" || status=1
      check "perfbench-smoke-$w-trace.txt" "perfbench-$w-trace"
    done
    ;;
  *)
    echo "usage: $0 ebench BENCH_DIR [--update] | perfbench [--update]" >&2
    exit 2
    ;;
esac
exit $status
