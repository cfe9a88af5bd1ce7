#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark, runs perf_logic_test (critical-path stitching on
synthetic event logs, percentiles with failed attempts), then a one-second
smoke run of every workload, untraced and traced, through perfbench/run.py.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_logic(self):
        proc = subprocess.run([os.path.join(self.build_dir, "perf_logic_test")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_smoke_untraced(self):
        for w in bench_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.smoke(w["name"], 0)
                for name in ("setup_s", "goodput_tps", "txn_p50_us", "txn_p99_us"):
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_smoke_traced(self):
        for w in bench_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.smoke(w["name"], 1)
                value = {name: m["value"] for name, m in metrics.items()}
                self.assertGreater(value["transport.client_send_ns"], 0)
                self.assertGreater(value["replica.dispatch_self_ns"], 0)
                self.assertGreater(value["store.validate_ns"], 0)
                self.assertGreater(value["serialization.decode_ns_per_msg"], 0)
                self.assertGreater(value["coordinator.validate_wait_ns"], 0)
                # The client cache works only where it is enabled.
                if w["name"] == "ycsbb_cached":
                    self.assertGreater(value["cache.hit_ratio"], 0)
                else:
                    self.assertEqual(value["cache.hit_ratio"], 0)
                    self.assertEqual(value["cache.gets_saved_per_txn"], 0)


if __name__ == "__main__":
    unittest.main()
