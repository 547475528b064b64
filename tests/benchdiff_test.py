#!/usr/bin/env python3
"""Canary for tools/benchdiff.py: it must catch a moved leaf, name it, and
round-trip its own baseline.

    python3 tests/benchdiff_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCHDIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "tools", "benchdiff.py")

# The shape obs::BenchReport writes (src/obs/report.h).
BENCH = {
    "bench": "e9_cross_shard",
    "seed": 42,
    "config": {"shards": 4},
    "series": [
        {"name": "AHL/cross=10", "params": {"cross_frac": 0.1},
         "metrics": {"msgs_per_txn": 66.325, "abort_rate": 0.00625,
                     "commit_latency_mean_us": 5418.6875,
                     "registry": {"counters": {"net.sent": 2653}}}},
        {"name": "SharPer/cross=10", "params": {"cross_frac": 0.1},
         "metrics": {"msgs_per_txn": 56.275, "abort_rate": 0,
                     "goodput_frac": 0.30000000000000004}},
    ],
    "scheduler": {"workers": 4, "jobs_run": 10, "steals": 3},
}
# The shape check_runner --report writes (src/check/check_main.cc); a sweep
# that found violations is pinned like any other.
CHECK = {"tool": "check_runner", "wall_ms": 1234,
         "report": {"runs": 4, "live_runs": 4, "sim_events": 51234,
                    "violating_runs": 1,
                    "coverage": {"chain-agreement": 40},
                    "failures": [{"repro": "check_runner --seed-base 2",
                                  "shrink_replays": 7}],
                    "not_live": []}}
PERFBENCH = {"correct": True, "attempted": 40004, "failed": 0,
             "metrics": {"wall_s": {"value": 0.285, "unit": "s"},
                         "msgs_per_txn": {"value": 6.32345, "unit": "count"}}}


class BenchdiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = self.path("baseline.txt")

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def run_benchdiff(self, result, *flags):
        result_path = self.path("result.json")
        with open(result_path, "w") as f:
            json.dump(result, f, indent=2)
        return subprocess.run(
            [sys.executable, BENCHDIFF, result_path, self.baseline, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

    def baseline_bytes(self):
        with open(self.baseline, "rb") as f:
            return f.read()

    def test_update_then_recheck_is_byte_identical(self):
        self.assertEqual(self.run_benchdiff(BENCH, "--update").returncode, 0)
        pinned = self.baseline_bytes()
        self.assertIn(b"series[AHL/cross=10].metrics.abort_rate = 0.00625\n",
                      pinned)
        self.assertNotIn(b"scheduler", pinned)
        self.assertEqual(self.run_benchdiff(BENCH).returncode, 0)
        self.assertEqual(self.run_benchdiff(BENCH, "--update").returncode, 0)
        self.assertEqual(self.baseline_bytes(), pinned)

    def test_moved_leaf_fails_with_its_path_and_both_values(self):
        self.run_benchdiff(BENCH, "--update")
        moved = copy.deepcopy(BENCH)
        moved["series"][1]["metrics"]["goodput_frac"] = 0.3  # one ulp
        out = self.run_benchdiff(moved)
        self.assertEqual(out.returncode, 1)
        path = "series[SharPer/cross=10].metrics.goodput_frac"
        self.assertIn("-%s = 0.30000000000000004\n" % path, out.stdout)
        self.assertIn("+%s = 0.3\n" % path, out.stdout)

    def test_added_row_shows_as_added_lines_only(self):
        self.run_benchdiff(BENCH, "--update")
        grown = copy.deepcopy(BENCH)
        grown["series"].insert(0, {"name": "AHL/cross=0", "params": {},
                                   "metrics": {"abort_rate": 0}})
        out = self.run_benchdiff(grown)
        self.assertEqual(out.returncode, 1)
        changed = [line for line in out.stdout.splitlines()
                   if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        self.assertEqual(changed, ["+series[AHL/cross=0].params = {}",
                                   "+series[AHL/cross=0].metrics.abort_rate = 0"])

    def test_wall_clock_fields_are_not_pinned(self):
        self.run_benchdiff(PERFBENCH, "--update")
        rerun = copy.deepcopy(PERFBENCH)
        rerun["attempted"] = 60006
        rerun["metrics"]["wall_s"]["value"] = 0.3
        self.assertEqual(self.run_benchdiff(rerun).returncode, 0)
        rerun["metrics"]["msgs_per_txn"]["value"] = 6.3
        self.assertEqual(self.run_benchdiff(rerun).returncode, 1)

    def test_check_runner_report_pins_everything_but_wall_ms(self):
        self.assertEqual(self.run_benchdiff(CHECK, "--update").returncode, 0)
        pinned = self.baseline_bytes()
        self.assertIn(b"report.sim_events = 51234\n", pinned)
        self.assertIn(b"report.failures[0].shrink_replays = 7\n", pinned)
        self.assertNotIn(b"wall_ms", pinned)
        rerun = copy.deepcopy(CHECK)
        rerun["wall_ms"] = 99
        self.assertEqual(self.run_benchdiff(rerun).returncode, 0)
        rerun["report"]["sim_events"] = 51235
        out = self.run_benchdiff(rerun)
        self.assertEqual(out.returncode, 1)
        self.assertIn("+report.sim_events = 51235\n", out.stdout)

    def test_failed_perfbench_result_is_refused(self):
        self.run_benchdiff(PERFBENCH, "--update")
        pinned = self.baseline_bytes()
        for bad in ({"failed": 1}, {"correct": False}):
            result = dict(PERFBENCH, **bad)
            for flags in ([], ["--update"]):
                out = self.run_benchdiff(result, *flags)
                self.assertEqual(out.returncode, 1, (bad, flags))
                self.assertIn("refusing", out.stdout)
        self.assertEqual(self.baseline_bytes(), pinned)


if __name__ == "__main__":
    unittest.main()
