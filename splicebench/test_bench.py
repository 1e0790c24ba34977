#!/usr/bin/env python3
"""Checks of the benchmark's own files; needs no build.

    python3 splicebench/test_bench.py

- BENCHMARK.json and every file under its paths are tracked by git, not
  ignored (evidence that an ignore rule swallows never gets committed);
- BENCHMARK.json names workloads run.py runs (all but deploy-churn) and the
  metrics the splicebench binary reports, with the same units;
- every read-only workload has a golden outcome for each of its requests,
  and every spliced request's golden carries its splice decisions.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's entry point, for its workload list)


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def metric_table(name):
    """(name, unit) pairs of one metric table in splicebench.cpp."""
    with open(os.path.join(ROOT, "splicebench", "splicebench.cpp")) as f:
        src = f.read()
    body = src[src.index(f"constexpr Metric {name}[] = {{"):]
    body = body[:body.index("};")]
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)


class BenchmarkFiles(unittest.TestCase):
    def setUp(self):
        self.spec = load("BENCHMARK.json")

    def test_nothing_named_is_ignored(self):
        if subprocess.run(["git", "rev-parse"], cwd=ROOT,
                          capture_output=True).returncode != 0:
            self.skipTest("not a git checkout")
        files = ["BENCHMARK.json"]
        for path in self.spec["paths"]:
            for base, _, names in os.walk(os.path.join(ROOT, path)):
                files += [os.path.relpath(os.path.join(base, n), ROOT)
                          for n in names if n != "__pycache__"
                          and "__pycache__" not in base]
        ignored = subprocess.run(["git", "check-ignore", "--no-index", *files],
                                 cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(ignored.stdout.split(), [],
                         "benchmark files matched by .gitignore")

    def test_workloads_are_run_py_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])
        self.assertNotIn("deploy-churn", names)

    def test_metrics_match_the_binary(self):
        for key, table in (("end_to_end", "kEndToEnd"),
                           ("per_layer", "kPerLayer")):
            listed = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(listed, metric_table(table), key)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_goldens_cover_every_request(self):
        expected = {"radiuss-batch": 32, "public10k-splice": 17}
        for workload, count in expected.items():
            goldens = load(os.path.join("splicebench", "goldens",
                                        workload + ".json"))
            self.assertEqual(goldens["workload"], workload)
            self.assertEqual(len(goldens["requests"]), count, workload)
            for request in goldens["unpruned_checked"]:
                self.assertIn(request, goldens["requests"])
            for request, golden in goldens["requests"].items():
                self.assertEqual(sorted(golden), sorted(
                    ["objectives", "builds", "splices", "dag_hash"]), request)
                if "^mpiabi" in request:
                    self.assertTrue(golden["splices"], request)


if __name__ == "__main__":
    unittest.main()
