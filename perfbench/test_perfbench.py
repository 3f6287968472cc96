#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- a reduced-size smoke run of every workload, untraced and traced, whose
  result line must be correct and print exactly the metric names and units
  of BENCHMARK.json;
- the engine scenario stream is a pure function of the seed;
- BENCHMARK.json keeps its required shape;
- without the library sources the benchmark fails fast and prints no result.

Builds the program into .bench_build/perfbench on first use.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
PROGRAM = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT, smoke=True):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        bench = load_bench()
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in bench[section]}
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0.0, name)


class ScenarioStream(unittest.TestCase):
    def stream(self, seed):
        if not os.path.isfile(PROGRAM):
            run_bench("engine-screen", 0)  # builds the program
        return subprocess.run([PROGRAM, "--print-stream", "300", "--seed",
                               str(seed)], capture_output=True, text=True,
                              check=True).stdout

    def test_same_seed_same_stream(self):
        self.assertEqual(self.stream(7), self.stream(7))

    def test_other_seed_other_stream(self):
        self.assertNotEqual(self.stream(7), self.stream(8))

    def test_stream_covers_every_pool_scenario(self):
        lines = self.stream(7).splitlines()
        pool = [l for l in lines if l.startswith("pool ")]
        picks = {int(l) for l in lines if not l.startswith("pool ")}
        self.assertEqual(picks, set(range(len(pool))))


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench = load_bench()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "c5g7-managed", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
