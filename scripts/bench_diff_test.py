#!/usr/bin/env python3
"""Self-test of bench_diff.py: rows pair by their config fields.

Runs the script on small baseline/fresh JSON pairs and checks its exit
status (0 clean, 1 regression, 2 not comparable) for reordered rows, a
missing row and a config mismatch.

Usage: python3 scripts/bench_diff_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")

BASELINE = [
    {"partitions": 1, "workers": 0, "commit_ms": 2.0, "speedup_vs_p1": 1.0},
    {"partitions": 4, "workers": 2, "commit_ms": 1.0, "speedup_vs_p1": 2.0},
    {"partitions": 4, "workers": 4, "commit_ms": 0.5, "speedup_vs_p1": 4.0},
]


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, baseline, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rows in (("baseline", baseline), ("fresh", fresh)):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(rows, f)
                paths.append(path)
            done = subprocess.run([sys.executable, SCRIPT] + paths,
                                  capture_output=True, text=True)
        return done.returncode, done.stdout

    def test_identical_rows_are_clean(self):
        code, _ = self.run_diff(BASELINE, BASELINE)
        self.assertEqual(code, 0)

    def test_reordered_rows_pair_by_config(self):
        code, out = self.run_diff(BASELINE, BASELINE[::-1])
        self.assertEqual(code, 0, out)
        # Paired by position, reversed rows would read as a 4x slowdown.
        slower = [dict(r) for r in BASELINE[::-1]]
        slower[0]["commit_ms"] *= 4  # the partitions=4, workers=4 row
        code, out = self.run_diff(BASELINE, slower)
        self.assertEqual(code, 1, out)
        self.assertIn("'commit_ms' 0.5 -> 2", out)

    def test_missing_row_is_not_comparable(self):
        code, out = self.run_diff(BASELINE, BASELINE[:1] + BASELINE[2:])
        self.assertEqual(code, 2, out)
        self.assertIn("baseline row 1 {partitions=4, workers=2}", out)

    def test_config_mismatch_is_not_comparable(self):
        fresh = [dict(r) for r in BASELINE]
        fresh[2]["workers"] = 3
        code, out = self.run_diff(BASELINE, fresh)
        self.assertEqual(code, 2, out)
        self.assertIn("baseline row 2 {partitions=4, workers=4}", out)
        self.assertIn("fresh row 2 {partitions=4, workers=3}", out)

    def test_rows_sharing_a_config_pair_in_order(self):
        baseline = [{"cores": 1, "reads_per_sec": 100.0},
                    {"cores": 1, "reads_per_sec": 10.0}]
        code, out = self.run_diff(baseline, baseline)
        self.assertEqual(code, 0, out)
        code, out = self.run_diff(baseline, baseline[::-1])
        self.assertEqual(code, 1, out)


if __name__ == "__main__":
    unittest.main()
