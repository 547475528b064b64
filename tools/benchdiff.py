#!/usr/bin/env python3
"""Diffs a benchmark result's deterministic fields against its baseline.

    python3 tools/benchdiff.py RESULT BASELINE [--update]

RESULT is a BENCH_<name>.json, a check_runner --report file, or the saved
stdout line of perfbench/run.py.
Each leaf not in WALL_CLOCK becomes a `path = value` line, in document
order; series rows are keyed by name, and numbers print as repr, which
round-trips obs/json's %.17g. If the lines differ from BASELINE, a unified
diff is printed and the exit status is 1; --update rewrites BASELINE
instead. A perfbench result that is not correct or failed anything is
refused.
"""

import difflib
import fnmatch
import json
import os
import sys

# Leaves that depend on the host, matched against "<bench>:<path>", where
# <bench> is a BENCH file's "bench" field, a report's "tool" field, or
# "perfbench". Everything else is pinned, so a new wall-clock field fails
# loudly.
WALL_CLOCK = [
    "check_runner:wall_ms",
    "e*:scheduler.*",  # fan-out worker counters
    # e2 and e3 time real execution, and google-benchmark picks how often
    # each case repeats. Their abort and commit counts are per repeat; their
    # rates, latencies and latency sample counts are not.
    "e[23]_*:series*.metrics.throughput_txn_per_s",
    "e[23]_*:series*.metrics.commit_latency_*",
    "e[23]_*:series*.metrics.block_latency_us.*",
    # e10's attested-log rows time the software attest and verify calls;
    # its committee sizing and 2-shard deployment rows are simulated.
    "e10_*:series?attested_log_*.metrics.*",
    "perfbench:attempted",  # iterations that fit in --seconds
] + ["perfbench:metrics.%s.*" % name for name in [
    "setup_s", "wall_s", "cpu_us_per_txn", "peak_rss_mb", "traced_wall_s",
    "obs.overhead_frac", "sim.events_per_s", "consensus.self_s",
    "consensus.submit_us_p*", "consensus.*.wall_s", "crypto.*",
    "block.seal_us", "arch.process_block_*", "store.persist_*",
    "store.recover_ms", "pool.steals"]]


def leaves(node, path):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaves(value, "%s.%s" % (path, key) if path else key)
    elif isinstance(node, list) and node:
        for i, row in enumerate(node):
            if isinstance(row, dict) and "name" in row:
                row = dict(row)
                i = row.pop("name")
            yield from leaves(row, "%s[%s]" % (path, i))
    else:
        yield path, json.dumps(node)


def lines(result):
    bench = result.get("bench") or result.get("tool") or "perfbench"
    if bench == "perfbench" and (result.get("correct") is not True or
                                 result.get("failed") != 0):
        sys.exit("benchdiff: refusing a perfbench result with correct=%s "
                 "failed=%s" % (result.get("correct"), result.get("failed")))
    return ["%s = %s\n" % (path, value) for path, value in leaves(result, "")
            if not any(fnmatch.fnmatchcase("%s:%s" % (bench, path), pattern)
                       for pattern in WALL_CLOCK)]


def main(argv):
    if len(argv) < 2 or argv[2:] not in ([], ["--update"]):
        sys.exit(__doc__.split("\n\n")[1])
    result_path, baseline_path = argv[:2]
    with open(result_path) as f:
        got = lines(json.load(f))
    if argv[2:]:
        with open(baseline_path, "w") as f:
            f.writelines(got)
        return 0
    want = []
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            want = f.readlines()
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want, got, baseline_path, result_path, n=0))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
