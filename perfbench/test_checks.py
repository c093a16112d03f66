#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

    python3 perfbench/test_checks.py [-v]

Run from the repository root (builds through perfbench/run.py). Every
output check must fail on its seeded defect — the run reports failed
operations — and pass on the unmodified code. Also checks that the
traced runs pass (1-worker and N-worker results agree, the λ-alone
run reproduces the co-simulation's counts) and that the benchmark
refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 3


def run(workload, trace=0, defect="none", seed=1):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace), "--defect", defect],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def result(p):
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.splitlines()[-1])


class SeededDefects(unittest.TestCase):
    def assertFails(self, workload, defect):
        r = result(run(workload, defect=defect))
        self.assertGreater(r["failed"], 0,
                           "%s did not fail under %s" % (workload, defect))
        self.assertLessEqual(r["failed"], r["attempted"])

    def test_oracle_fuzz_poisoned_operand(self):
        self.assertFails("oracle-fuzz", "poisoned-operand")

    def test_oracle_fuzz_ir_alloc_charge(self):
        self.assertFails("oracle-fuzz", "ir-alloc-charge")

    def test_concolic_sym_mul(self):
        self.assertFails("concolic", "sym-mul")

    def test_icd_cosim_slow_lambda(self):
        self.assertFails("icd-cosim", "slow-lambda")

    def test_icd_cosim_silent_fault(self):
        self.assertFails("icd-cosim", "silent-fault")

    def test_fault_campaign_tiny_budget(self):
        self.assertFails("fault-campaign", "tiny-budget")


class CleanCode(unittest.TestCase):
    def check(self, workload, trace):
        r = result(run(workload, trace=trace))
        self.assertTrue(r["correct"], "%s trace %d" % (workload, trace))
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)
        return r

    def test_untraced(self):
        for w in ("icd-cosim", "fault-campaign", "oracle-fuzz", "concolic"):
            with self.subTest(workload=w):
                r = self.check(w, 0)
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        measured = set()
        for w in ("icd-cosim", "fault-campaign", "oracle-fuzz", "concolic"):
            with self.subTest(workload=w):
                r = self.check(w, 1)
                self.assertEqual(list(r["metrics"]), names)
                measured |= {n for n, m in r["metrics"].items()
                             if m["value"] != 0}
        # Every per-layer timing and base is measured on some workload
        # (counts and shares may legitimately read 0).
        for n in names:
            if n.endswith((".n", ".base")):
                self.assertIn(n, measured)


class Contract(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "concolic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
