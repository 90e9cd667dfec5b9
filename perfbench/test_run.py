"""Tests of the output contract of run.py.

Run from the repository root: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(root, *args):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=root, capture_output=True,
                          text=True, timeout=900)


class OutputContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                   "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer" if trace else "end_to_end"]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for m in result["metrics"].values():
            self.assertTrue(math.isfinite(m["value"]))
        # Every metric shown in the human-readable lines is declared too.
        everything = {m["name"]: m["unit"] for m in self.spec["per_layer"] + self.spec["end_to_end"]}
        for line in lines[:-1]:
            if line.startswith("{"):
                record = json.loads(line)
                self.assertIn("conditions", record)
                for key in ("nproc", "threads", "oversubscribed", "cache", "seed", "git_commit",
                            "rustc"):
                    self.assertIn(key, record["conditions"])
                self.assertIn("fleet_size", record)
            else:
                name, _value, unit = line.split()[:3]
                self.assertEqual(everything.get(name), unit, line)

    def test_every_workload_prints_its_declared_metrics(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_failure_counts_depend_on_the_seed_alone(self):
        # Runs of different length fit different numbers of repetitions;
        # attempted and failed must not change with it.
        counts = set()
        for seconds in ("0.1", "4"):
            done = run(ROOT, "--workload", "localize", "--seed", "7", "--seconds", seconds,
                       "--trace", "0")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            counts.add((result["attempted"], result["failed"]))
        self.assertEqual(len(counts), 1, counts)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = subprocess.run([sys.executable, RUN, "--workload", "pilot", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare,
                                  capture_output=True, text=True, timeout=300,
                                  env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
