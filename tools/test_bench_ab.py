#!/usr/bin/env python3
"""Unit tests of tools/bench_ab.py's verdict rule and run checks.

    python3 tools/test_bench_ab.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ab  # noqa: E402

# Ten parent runs with an interquartile range of 0.045 around 1.045.
PARENT = [1.0 + 0.01 * i for i in range(10)]
BOUND = 0.24


class Verdict(unittest.TestCase):
    def test_ten_wins_beyond_the_iqr_is_a_gain(self):
        change = [p - 0.1 for p in PARENT]
        m = bench_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual(m["wins"], 10)
        self.assertGreater(m["parent"]["median"] - m["change"]["median"],
                           m["parent"]["q3"] - m["parent"]["q1"])
        self.assertEqual(m["verdict"], "gain")

    def test_eight_wins_is_no_gain(self):
        change = [p - 0.1 for p in PARENT[:8]] + \
            [p + 0.1 for p in PARENT[8:]]
        m = bench_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual((m["wins"], m["losses"]), (8, 2))
        self.assertEqual(m["verdict"], "same")

    def test_ten_wins_within_the_iqr_is_no_gain(self):
        change = [p - 0.01 for p in PARENT]
        m = bench_ab.compare(PARENT, change, "lower", BOUND)
        self.assertEqual(m["wins"], 10)
        self.assertEqual(m["verdict"], "same")

    def test_median_worse_by_more_than_the_bound_is_a_regression(self):
        change = [p * 1.3 for p in PARENT]
        self.assertEqual(
            bench_ab.compare(PARENT, change, "lower", BOUND)["verdict"],
            "regression")
        # Within the bound it is not.
        change = [p * 1.2 for p in PARENT]
        self.assertEqual(
            bench_ab.compare(PARENT, change, "lower", BOUND)["verdict"],
            "same")

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        wide = [1.0, 2.0] * 5
        change = [1.9, 1.1] * 5
        m = bench_ab.compare(wide, change, "lower", BOUND)
        self.assertGreater(m["parent"]["q3"] - m["parent"]["q1"],
                           BOUND * m["parent"]["median"])
        self.assertEqual(m["verdict"], "unresolved")

    def test_change_spread_wider_than_the_bound_is_unresolved(self):
        # A bimodal change whose median stays within the bound of a
        # tight parent.
        change = [0.9, 1.5] * 5
        m = bench_ab.compare(PARENT, change, "lower", BOUND)
        self.assertLess(m["change"]["median"],
                        (1 + BOUND) * m["parent"]["median"])
        self.assertGreater(m["change"]["q3"] - m["change"]["q1"],
                           BOUND * m["parent"]["median"])
        self.assertEqual(m["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        wide = [1.0, 2.0] * 5
        change = [0.99, 0.98] * 5
        m = bench_ab.compare(wide, change, "lower", BOUND)
        self.assertNotEqual(m["verdict"], "unresolved")
        # Every pair won, but by less than the parent's IQR: no gain.
        self.assertEqual((m["wins"], m["verdict"]), (10, "same"))

    def test_deterministic_ties_are_same(self):
        m = bench_ab.compare([0.0123] * 10, [0.0123] * 10, "lower", 0.1)
        self.assertEqual((m["wins"], m["losses"], m["ties"]), (0, 0, 10))
        self.assertEqual(m["verdict"], "same")

    def test_direction_of_a_win_follows_the_metric(self):
        lower = [p - 0.1 for p in PARENT]
        wall = bench_ab.compare(PARENT, lower, "lower", BOUND)
        mips = bench_ab.compare(PARENT, lower, "higher", BOUND)
        self.assertEqual((wall["wins"], wall["losses"]), (10, 0))
        self.assertEqual((mips["wins"], mips["losses"]), (0, 10))
        higher = [p + 0.1 for p in PARENT]
        self.assertEqual(
            bench_ab.compare(PARENT, higher, "higher", BOUND)["verdict"],
            "gain")
        self.assertEqual(
            bench_ab.compare(PARENT, [p * 0.7 for p in PARENT], "higher",
                             BOUND)["verdict"],
            "regression")


class RunCheck(unittest.TestCase):
    def line(self, correct=True, failed=0):
        return json.dumps({"correct": correct, "attempted": 3,
                           "failed": failed,
                           "metrics": {"wall_s": {"value": 0.5,
                                                  "unit": "s"}}})

    def test_good_run_yields_its_metrics(self):
        self.assertEqual(
            bench_ab.check_run("change", "paper_suite", 3, 0,
                               "build noise\n" + self.line(), ""),
            {"wall_s": 0.5})

    def test_failures_name_side_workload_and_pair(self):
        bad = [(2, self.line()), (0, self.line(correct=False)),
               (0, self.line(failed=1)), (0, "no json here"), (0, "")]
        for returncode, stdout in bad:
            with self.assertRaisesRegex(bench_ab.RunFailed,
                                        "parent run of timed_memory, "
                                        "pair 7"):
                bench_ab.check_run("parent", "timed_memory", 7, returncode,
                                   stdout, "perfbench: oops")


if __name__ == "__main__":
    unittest.main()
