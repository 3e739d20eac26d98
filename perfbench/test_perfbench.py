#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that inputs are
deterministic for a seed, that the metric names it prints are valid and
match BENCHMARK.json, and the percentile rule (metrics_test.cc).
"""

import json
import re
import subprocess
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def bench(*args):
    out = subprocess.run([str(run.BINARY), *args], capture_output=True,
                         text=True, timeout=120)
    if out.returncode != 0:
        raise AssertionError("paygo_perfbench %s failed: %s" %
                             (" ".join(args), out.stderr))
    return out.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("paygo_perfbench", "paygo_perfbench_test"))
        cls.spec = json.loads(BENCHMARK_JSON.read_text())

    def test_inputs_are_deterministic_for_a_seed(self):
        for w in self.spec["workloads"]:
            digest = lambda seed: bench("--digest", "--workload", w["name"],
                                        "--seed", str(seed)).strip()
            first = digest(7)
            self.assertEqual(first, digest(7), w["name"])
            self.assertNotEqual(first, digest(8), w["name"])

    def test_metric_names_are_valid_and_match_benchmark_json(self):
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in bench("--list-metrics").splitlines():
            kind, name, unit = line.split()
            self.assertRegex(name, NAME)
            printed[kind][name] = unit
        for kind in printed:
            declared = {m["name"]: m["unit"] for m in self.spec[kind]}
            self.assertEqual(printed[kind], declared, kind)

    def test_percentile_rule(self):
        out = subprocess.run([str(run.BUILD_DIR / "paygo_perfbench_test")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stderr)


if __name__ == "__main__":
    unittest.main()
