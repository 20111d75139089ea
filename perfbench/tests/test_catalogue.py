"""BENCHMARK.json, the harness's metric catalogue and its workload table
must agree, and the file must keep the benchmark contract's shape."""
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from emxbench import metrics  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Catalogue(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIn("perfbench/run.py", SPEC["command"])

    def test_workloads_match_the_harness(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics_match_the_catalogue(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         list(metrics.PER_LAYER))

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
