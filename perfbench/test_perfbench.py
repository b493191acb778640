#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny size (seconds per workload).

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


class PerfbenchTest(unittest.TestCase):
    def test_smoke_prints_every_metric_of_benchmark_json(self):
        proc = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])

    def test_contract_run_ends_with_a_json_result(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "serve_sweep", "--seed", "3",
             "--seconds", "1", "--trace", "0", "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        for metric in spec["end_to_end"]:
            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_fails_without_the_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_hot", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
