#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (see run.py), runs its C++ self-test (input
fingerprints, probe accounting, the result checker), and checks that every
metric the benchmark prints is declared in BENCHMARK.json with its unit,
that every workload there says why it exists, and that the benchmark
refuses to run under the library's override variables.
"""
import json
import os
import subprocess
import unittest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = run.build(["perfbench", "perfbench_selftest"])
        cls.binary = os.path.join(build_dir, "perfbench")
        cls.selftest = os.path.join(build_dir, "perfbench_selftest")
        cls.scratch = os.path.join(run.BUILD_ROOT, "selftest")
        os.makedirs(cls.scratch, exist_ok=True)
        with open(BENCHMARK_JSON) as f:
            cls.spec = json.load(f)

    def test_selftest(self):
        p = subprocess.run([self.selftest, self.scratch],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_printed_metrics_are_declared(self):
        out = subprocess.run([self.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        printed = {"end_to_end": {}, "per_layer": {}, "workload": {}}
        for line in out.splitlines():
            kind, name, *unit = line.split()
            printed[kind][name] = unit[0] if unit else None
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.spec[kind]}
            self.assertEqual(printed[kind], declared, kind)
        self.assertEqual(set(printed["workload"]),
                         {w["name"] for w in self.spec["workloads"]})
        for w in self.spec["workloads"]:
            self.assertTrue(w["why"].strip(), w["name"])

    def test_refuses_override_variables(self):
        for var in ("MPN_MEMORY_BUDGET", "MPN_LANE_ISA", "MPN_CRASH_PLAN",
                    "MPN_FAULT_PLAN", "MPN_BENCH_SCALE"):
            env = dict(os.environ, **{var: "32k"})
            p = subprocess.run([self.binary, "--workload", "max_tiled",
                                "--seed", "1", "--seconds", "1", "--trace", "0",
                                "--out", self.scratch],
                               env=env, capture_output=True, text=True)
            self.assertNotEqual(p.returncode, 0, var)
            self.assertIn(var, p.stderr)
            self.assertEqual(p.stdout, "", var)


if __name__ == "__main__":
    unittest.main()
