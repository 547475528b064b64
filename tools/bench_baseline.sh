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
#   tools/bench_baseline.sh check BIN_DIR [--update]
#     Small check_runner grids built in BIN_DIR (a build tree's src/check/),
#     each at --jobs 1 and then at the default fan-out against the same
#     baseline: a sweep report is a pure function of its grid. Together the
#     grids run every nemesis kind, every adversary mode, clock skew and a
#     sharded protocol.
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

sweep() {  # sweep GRID CHECK_RUNNER_FLAGS...
  name=$1
  shift
  for jobs in 1 default; do
    rm -f "check-$name-$jobs.json"
    # Exit 1 reports violations, which the baseline pins like any field.
    "$bin/check_runner" "$@" --seeds 10 --txns 20 --quiet \
      --report "check-$name-$jobs.json" \
      $([ "$jobs" = default ] || echo --jobs "$jobs") > /dev/null
    [ $? -le 1 ] || status=1
    check "check-$name-$jobs.json" "check-$name"
    update=  # the default fan-out must match what --jobs 1 wrote
  done
  update=$mode_update
}

case "${1:-}" in
  ebench)
    bin=${2:?BENCH_DIR}
    update=${3:-}
    for b in e2_contention e3_xov_variants e4_consensus e6_caper \
        e8_sharding e9_cross_shard e10_trusted_hw e12_faults; do
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
  check)
    bin=${2:?BIN_DIR}
    update=${3:-}
    mode_update=$update
    sweep plain --protocol pbft,raft --nemesis "crash;crash,partition"
    sweep block --protocol pbft,raft --nemesis "crash;crash,partition" \
      --block-max-txns 10
    # The quorum-slack mutation makes PBFT and Raft fail, so shrinking runs.
    sweep leader --protocol pbft,raft,hotstuff --nemesis none \
      --adversary leader --mutate-quorum 1
    sweep durable --protocol pbft,raft \
      --nemesis "crash,torn-write;crash,lost-flush" --durable
    sweep skew --protocol pbft,sharper --nemesis delay,byzantine \
      --clock-skew 150000
    sweep quorum --protocol paxos,tendermint --nemesis none --adversary quorum
    sweep churn --protocol hotstuff,paxos,tendermint --nemesis none \
      --adversary churn
    ;;
  *)
    echo "usage: $0 ebench BENCH_DIR [--update] | perfbench [--update]" \
      "| check BIN_DIR [--update]" >&2
    exit 2
    ;;
esac
exit $status
