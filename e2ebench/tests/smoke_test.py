#!/usr/bin/env python3
"""The benchmark's own tests: the helper unit tests plus a tiny smoke run.

Run from the root of a checkout:

    python3 e2ebench/tests/smoke_test.py

Builds the benchmark (as run.py does), runs the helper tests, then runs every
workload on smoke-sized inputs with and without tracing, and checks that the
last output line carries exactly the metric names and units BENCHMARK.json
lists, with correct outputs.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = os.path.join(ROOT, "e2ebench", "run.py")


def build_dir():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, build_root, "e2ebench")


def run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]), name)
        if not trace:
            for name, v in result["metrics"].items():
                self.assertNotEqual(v["value"], 0, name)

    def test_pipeline(self):
        self.check("pipeline", 0)

    def test_ingest(self):
        self.check("ingest", 0)

    def test_serve(self):
        self.check("serve", 0)

    def test_traced(self):
        for workload in ("pipeline", "ingest", "serve"):
            with self.subTest(workload=workload):
                self.check(workload, 1)

    def test_same_seed_same_inputs(self):
        data = os.path.join(ROOT, ".bench_data", "smoke", "pipeline-5")
        run("pipeline", 0)
        with open(os.path.join(data, "dump.xml"), "rb") as f:
            first = f.read()
        subprocess.run(
            [os.path.join(build_dir(), "wcbench_gen"), "--workload",
             "pipeline", "--seed", "5", "--scale", "smoke", "--out",
             data + ".again"], check=True, capture_output=True)
        with open(os.path.join(data + ".again", "dump.xml"), "rb") as f:
            self.assertEqual(first, f.read())
        subprocess.run(["rm", "-rf", data + ".again"], check=True)


class HelperTest(unittest.TestCase):
    def test_helpers(self):
        subprocess.run(["cmake", "--build", build_dir(), "--target",
                        "wcbench_test"], check=True, capture_output=True)
        proc = subprocess.run([os.path.join(build_dir(), "wcbench_test")],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])


if __name__ == "__main__":
    unittest.main()
