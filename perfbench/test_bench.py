"""Tests of the benchmark itself. Run from the root of the source tree:

    python3 -m unittest perfbench/test_bench.py

They build the benchmark through run.py (as the benchmark command does)
and take about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Catalog(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = bench("--list-metrics")
        assert out.returncode == 0, out.stderr
        cls.rows = [json.loads(line) for line in out.stdout.splitlines()]
        cls.spec = load_benchmark()

    def test_benchmark_json_shape(self):
        spec = self.spec
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertIn(
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": max(m["bound"] for m in spec["end_to_end"])},
            spec["end_to_end"])

    def test_metric_name_grammar(self):
        spec = self.spec
        names = [w["name"] for w in spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_catalog_matches_benchmark_json(self):
        for kind in ("end_to_end", "per_layer"):
            listed = [(r["name"], r["unit"], r["better"])
                      for r in self.rows if r["kind"] == kind]
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.spec[kind]]
            self.assertEqual(listed, declared, kind)

    def test_every_layer_metric_names_its_target(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        for r in self.rows:
            if r["kind"] != "per_layer":
                continue
            self.assertTrue(r["moves"], r["name"])
            for move in r["moves"]:
                self.assertIn(move["metric"], e2e, r["name"])
                self.assertTrue(move["workloads"], r["name"])
                self.assertTrue(set(move["workloads"]) <= workloads, r["name"])
            self.assertTrue(r["why"], r["name"])


class Runs(unittest.TestCase):
    def test_result_line_and_exact_repeat(self):
        spec = load_benchmark()
        runs = [bench("--workload", "elect", "--seed", "7", "--seconds",
                      "0.1", "--trace", "0") for _ in range(2)]
        results = []
        for out in runs:
            self.assertEqual(out.returncode, 0, out.stderr)
            res = result_line(out.stdout)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"])
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(set(res["metrics"]),
                             {m["name"] for m in spec["end_to_end"]})
            for m in spec["end_to_end"]:
                got = res["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertGreater(got["value"], 0)
            results.append(res["metrics"])
        for sim in ("lat_p50_ticks", "completions_per_ktick", "ok_ratio"):
            self.assertEqual(results[0][sim]["value"],
                             results[1][sim]["value"], sim)

    def test_planted_failures_exit_nonzero(self):
        cases = [
            ("elect", "elect-vector"),
            ("elect", "elect-winner"),
            ("elect", "atomic-winner"),
            ("elect", "drift"),
            ("svc-events", "svc-balance"),
            ("svc-events", "svc-stale"),
            ("svc-events", "telemetry"),
        ]
        for workload, plant in cases:
            with self.subTest(plant=plant):
                out = bench("--workload", workload, "--seed", "3",
                            "--seconds", "0.1", "--trace", "0",
                            "--plant", plant)
                self.assertEqual(out.returncode, 1, out.stderr)
                self.assertIn("CHECK FAILED", out.stderr)
                self.assertIsNone(result_line(out.stdout))

    def test_bad_arguments_exit_nonzero(self):
        out = bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertIsNone(result_line(out.stdout))

    def test_without_sources_exits_nonzero(self):
        # A tree holding only BENCHMARK.json and the benchmark's own files.
        bare = os.path.join(ROOT, "perfbench", "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out"))
            out = bench("--workload", "elect", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertIsNone(result_line(out.stdout))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
