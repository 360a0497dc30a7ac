#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They check that a corrupted reference digest or figure CSV fails the run
(non-zero exit, correct=false, failed counted, check_pass_ratio below 1) and
that every metric BENCHMARK.json names is emitted with its unit. Each case
runs perfbench/run.py with a one-second budget; scratch copies of the
references live under .bench_out/tests.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRATCH = os.path.join(ROOT, ".bench_out", "tests")


def run_bench(workload, trace=0, *extra):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1]) if lines[-1].startswith("{") else None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class CorruptedReferences(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def assert_failed_run(self, code, result):
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        ratio = result["metrics"]["check_pass_ratio"]["value"]
        self.assertAlmostEqual(ratio, 1 - result["failed"] / result["attempted"])

    def test_corrupted_digest_is_detected(self):
        refs = os.path.join(SCRATCH, "reference")
        shutil.copytree(os.path.join(ROOT, "perfbench", "reference"), refs)
        path = os.path.join(refs, "e1-16k.digest")
        with open(path) as f:
            digest = f.read().strip()
        with open(path, "w") as f:
            f.write(("0" if digest[0] != "0" else "1") + digest[1:] + "\n")
        self.assert_failed_run(*run_bench("e1-16k", 0, "--reference-dir", refs))

    def test_corrupted_csv_is_detected(self):
        results = os.path.join(SCRATCH, "results")
        shutil.copytree(os.path.join(ROOT, "results"), results)
        path = os.path.join(results, "fig5.csv")
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        with open(path, "wb") as f:
            f.write(bytes(data))
        self.assert_failed_run(*run_bench("figures", 0, "--results-dir", results))


class EmittedMetrics(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_bench("fabric-k8", trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec()[section]}
            self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
