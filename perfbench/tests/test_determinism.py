"""Seed and decorator self-checks of the fleet workloads.

Builds the driver like a benchmark run does (the first time takes a couple
of minutes), then runs short fleet passes:
  * the same --seed gives byte-identical virtual-clock results;
  * a different --seed changes them (the seed reaches the draws);
  * the traced pass through the decorated experts reproduces the bare
    pass byte for byte (the decorators are transparent).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run as R  # noqa: E402


def fleet_result(workload, seed, trace=0):
    with tempfile.TemporaryDirectory(dir=R.BUILD) as tmp:
        out = os.path.join(tmp, "raw.json")
        subprocess.run([R.BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), "--cache", R.CACHE,
                        "--out", out], check=True, timeout=R.RUN_TIMEOUT_S)
        with open(out) as f:
            doc = json.load(f)
    return json.dumps(doc["result"]), doc


class SeedDeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        R.build()

    def check_workload(self, workload):
        first, _ = fleet_result(workload, 5)
        again, _ = fleet_result(workload, 5)
        other, _ = fleet_result(workload, 6)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_fleet_mlp_seed(self):
        self.check_workload("fleet_mlp_k4")

    def test_fleet_lossy_seed(self):
        self.check_workload("fleet_lossy_k4")

    def test_decorators_are_transparent(self):
        plain, _ = fleet_result("fleet_mlp_k4", 7)
        traced, doc = fleet_result("fleet_mlp_k4", 7, trace=1)
        self.assertEqual(doc["decorators_transparent"], 1)
        self.assertEqual(plain, traced)
        self.assertTrue(any(s[0] == "nn.forward" for s in doc["spans"]))


if __name__ == "__main__":
    unittest.main()
