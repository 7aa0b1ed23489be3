#!/usr/bin/env python3
"""The benchmark's own tests: smoke sizes of every workload.

Run from the repository root (builds on first use, about a minute):

    python3 loopbench/test_loopbench.py

Each workload runs at its smoke size in both modes and must emit exactly
the metrics BENCHMARK.json names, each with its unit. Faults injected
through the benchmark's result decorators (a corrupted result column, a
dropped chunk) must be reported as failures with a non-zero exit, never
as a clean, faster run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mandel_hetero", "chunks_mediated", "chunks_masterless",
             "svc_open"]


def run(workload, trace=0, fault="none", seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", "--fault", fault],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, kind):
        code, result, err = run(workload, trace=trace)
        self.assertEqual(code, 0, err)
        self.assertIsNotNone(result, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = declared(kind)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if kind == "end_to_end":
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        else:
            self.assertEqual(result["metrics"]["obs.spans_dropped"]["value"], 0)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, "per_layer")

    def test_injected_faults_count_as_failures(self):
        cases = [("mandel_hetero", "corrupt"), ("mandel_hetero", "drop"),
                 ("chunks_mediated", "drop"), ("chunks_masterless", "drop"),
                 ("svc_open", "drop")]
        for w, fault in cases:
            with self.subTest(workload=w, fault=fault):
                code, result, err = run(w, fault=fault)
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, err)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAILED", err)

    def test_seed_changes_inputs_not_shape(self):
        _, a, _ = run("chunks_mediated", trace=1, seed=1)
        _, b, _ = run("chunks_mediated", trace=1, seed=2)
        ops = "workload.escape_iters"
        self.assertNotEqual(a["metrics"][ops]["value"], b["metrics"][ops]["value"])
        self.assertEqual(a["metrics"]["sched.chunks"]["value"],
                         b["metrics"]["sched.chunks"]["value"])


if __name__ == "__main__":
    unittest.main()
