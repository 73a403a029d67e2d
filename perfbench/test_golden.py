#!/usr/bin/env python3
"""Checks that the benchmark's output check catches a wrong golden.

    python3 perfbench/test_golden.py

Run from the repository root. Builds the driver like run.py, then runs
every workload for one second against a copy of golden.txt whose digests
are all flipped: each run must exit nonzero and report correct=false with
failed requests. A control run against the real golden must pass.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["headline", "design_sweep", "fleet", "service"]


class GoldenCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        cls.exe = run.build(cls.build_dir)
        if cls.exe is None:
            raise RuntimeError("perfbench build failed")
        cls.flipped = os.path.join(cls.build_dir, "golden-flipped.txt")
        with open(os.path.join(run.HERE, "golden.txt")) as src, \
                open(cls.flipped, "w") as dst:
            for line in src:
                table, key, digest = line.split()
                flipped = "%016x" % (int(digest, 16) ^ 1)
                dst.write("%s %s %s\n" % (table, key, flipped))

    def run_bench(self, workload, golden):
        proc = subprocess.run(
            [self.exe, "--workload", workload, "--seed", "42", "--seconds",
             "1", "--trace", "0", "--golden", golden, "--work-dir",
             self.build_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_flipped_golden_fails_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = self.run_bench(w, self.flipped)
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_real_golden_passes(self):
        rc, result = self.run_bench("headline",
                                    os.path.join(run.HERE, "golden.txt"))
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
