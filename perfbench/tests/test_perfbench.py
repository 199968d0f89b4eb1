#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on tiny inputs (about a minute).

Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py
"""

import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(workload, trace, seed=7, *extra):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in bench.WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    rc, result, proc = run_bench(workload, trace)
                    self.assertEqual(rc, 0, proc.stderr + proc.stdout[-3000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
                    for m in listed:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                    if trace == 0:
                        for name, got in result["metrics"].items():
                            self.assertGreater(got["value"], 0, name)

    def test_a_corrupted_output_trips_the_gate(self):
        for workload, what in (("batch_pml", "ylt"), ("out_of_core", "ylt"),
                               ("quote_mix", "quote")):
            with self.subTest(workload=workload):
                rc, result, proc = run_bench(workload, 0, 7, "--corrupt", what)
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAIL", proc.stdout)

    def test_the_seed_decides_the_inputs(self):
        base = os.path.join(ROOT, ".bench_build", "test-inputs")

        def digest(workload, seed, name):
            data = os.path.join(base, name)
            shutil.rmtree(data, ignore_errors=True)
            bench.generate(workload, seed, data, smoke=True)
            h = hashlib.sha256()
            for f in sorted(os.listdir(data)):
                with open(os.path.join(data, f), "rb") as fh:
                    h.update(fh.read())
            return h.hexdigest()

        try:
            for workload in bench.WORKLOADS:
                with self.subTest(workload=workload):
                    first = digest(workload, 1, "a")
                    self.assertEqual(first, digest(workload, 1, "b"))
                    self.assertNotEqual(first, digest(workload, 2, "c"))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
