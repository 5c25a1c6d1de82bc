"""Smoke test of the benchmark on tiny sizes of every workload.

Run from the root of the checkout:

    python3 -m unittest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def parsed(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    run, result = parsed(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], run["failures"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(run["fail_ratio"], 0)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[group]])
                    for m in SPEC[group]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    if trace:
                        self.assertTrue(run["counts_repeat"], run["counts_differing"])

    def test_corrupted_record_counts_as_failure(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                corrupt = json.loads(json.dumps(reference))
                if workload in ("sign_cli", "decide_long"):
                    first, *rest = corrupt[workload]["1"].split()
                    corrupt[workload]["1"] = " ".join(["x" + first[1:], *rest])  # no verdict starts with x
                else:
                    table = corrupt[workload]["tiny"]
                    key = next(iter(table))
                    table[key] += " corrupted"
                path = os.path.join(SCRATCH, f"reference-{workload}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(corrupt, fh)
                proc = bench("--workload", workload, "--trace", "0", "--reference", path)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                run, result = parsed(proc)
                self.assertGreater(run["fail_ratio"], 0)
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "sign_cli", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
