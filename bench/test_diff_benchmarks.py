#!/usr/bin/env python3
"""Tests of bench/diff_benchmarks.py on small synthetic baseline and new
directories: equal counters pass, a changed or missing counter fails and
is named with its benchmark, and the wall-time threshold still gates.

    python3 bench/test_diff_benchmarks.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_benchmarks.py")


def bench(name, real_time, **counters):
    """One google-benchmark entry with user counters."""
    entry = {"name": name, "run_name": name, "run_type": "iteration",
             "repetitions": 1, "repetition_index": 0, "threads": 1,
             "iterations": 10, "real_time": real_time,
             "cpu_time": real_time, "time_unit": "ms"}
    entry.update(counters)
    return entry


class DiffBenchmarksTest(unittest.TestCase):
    def diff(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            for side, benches in (("base", base), ("new", new)):
                os.mkdir(os.path.join(tmp, side))
                with open(os.path.join(tmp, side, "BENCH_x.json"), "w") as f:
                    json.dump({"context": {}, "benchmarks": benches}, f)
            return subprocess.run(
                [sys.executable, SCRIPT,
                 "--baseline-dir", os.path.join(tmp, "base"),
                 "--new-dir", os.path.join(tmp, "new")],
                capture_output=True, text=True)

    def test_equal_counters_pass(self):
        base = [bench("BM_A/1", 10.0, msgs=12.0, sim_ms=3.25),
                bench("BM_B", 5.0, clones=2.0, bytes_per_second=1e6)]
        new = [dict(b, real_time=b["real_time"] * 1.1) for b in base]
        new[1]["bytes_per_second"] = 2e6  # a rate is a timing, not a counter
        r = self.diff(base, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("every counter equal", r.stdout)

    def test_changed_counter_fails_naming_it(self):
        base = [bench("BM_A/1", 10.0, msgs=12.0, sim_ms=3.25),
                bench("BM_B", 5.0, clones=2.0)]
        new = [bench("BM_A/1", 10.0, msgs=13.0, sim_ms=3.25),
               bench("BM_B", 5.0, clones=2.0)]
        r = self.diff(base, new)
        self.assertEqual(r.returncode, 1, r.stdout)
        failing = [l for l in r.stdout.splitlines() if "COUNTER" in l]
        self.assertEqual(len(failing), 1, r.stdout)
        self.assertIn("BM_A/1", failing[0])
        self.assertIn("'msgs' 12 -> 13", failing[0])

    def test_missing_counter_fails(self):
        r = self.diff([bench("BM_A", 1.0, remaps=4.0)], [bench("BM_A", 1.0)])
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("'remaps' missing", r.stdout)

    def test_new_counter_is_reported_only(self):
        r = self.diff([bench("BM_A", 1.0)], [bench("BM_A", 1.0, kbytes=8.0)])
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("'kbytes' (no baseline)", r.stdout)

    def test_time_threshold_still_gates(self):
        r = self.diff([bench("BM_A", 10.0, msgs=1.0)],
                      [bench("BM_A", 20.0, msgs=1.0)])
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("REGRESSION", r.stdout)


if __name__ == "__main__":
    unittest.main()
