#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py        # from the checkout root

Runs the real benchmark on short runs (a few minutes in all, the first call
builds).  Checks that the printed metric names match BENCHMARK.json, that
a deliberately corrupted answer counts as failed, that in a traced run
each operation's self times plus its unaccounted remainder equal its wall
time, and that a directory holding only the benchmark fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=7, seconds=1, corrupt_op=-1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt_op >= 0:
        cmd += ["--corrupt-op", str(corrupt_op)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n"
                             f"{p.stderr.decode()[-2000:]}")
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                     ".bench_build")


def trace_path(workload, seed):
    return os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")


class MetricNames(unittest.TestCase):
    def check(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w)
                self.check(r, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0)

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, trace=1)
                self.check(r, SPEC["per_layer"])
                # The out-of-core probe maps its file under a quarter-size
                # window, so the window must evict.
                self.assertGreater(
                    r["metrics"]["graph.map_evictions"]["value"], 0)


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_batch_answer_counts_as_failed(self):
        r = run("cold-1t", corrupt_op=0)
        self.assertEqual(r["failed"], 1)
        self.assertFalse(r["correct"])

    def test_corrupted_served_answer_counts_as_failed(self):
        r = run("serve-4c", corrupt_op=5)
        self.assertEqual(r["failed"], 1)
        self.assertFalse(r["correct"])


class Trace(unittest.TestCase):
    def test_self_times_plus_remainder_equal_wall(self):
        for w in ("cold-1t", "serve-4c"):
            with self.subTest(workload=w):
                run(w, trace=1, seed=8)
                with open(trace_path(w, 8)) as f:
                    t = json.load(f)
                spans = t["spans"]
                kids = {}
                for i, s in enumerate(spans):
                    kids.setdefault(s["parent"], []).append(i)
                ops = {}
                for i, s in enumerate(spans):
                    # Self time recomputed here: duration minus the union
                    # of the children's intervals.
                    covered, reach = 0.0, s["start"]
                    for lo, hi in sorted((spans[k]["start"], spans[k]["end"])
                                         for k in kids.get(i, [])):
                        lo, hi = max(lo, reach), min(hi, s["end"])
                        if hi > lo:
                            covered, reach = covered + hi - lo, hi
                    ops.setdefault(s["op"], []).append(
                        (s, s["end"] - s["start"] - covered))
                self.assertTrue(t["ops"])
                for op in t["ops"]:
                    mine = ops[op["op"]]
                    root = [x for x in mine if x[0]["parent"] < 0]
                    self.assertEqual(len(root), 1)
                    wall = op["wall"]
                    total = sum(self_t for _, self_t in mine)
                    self.assertAlmostEqual(total, wall, delta=1e-6)
                    self.assertAlmostEqual(root[0][1], op["unaccounted"],
                                           delta=1e-6)
                    self.assertAlmostEqual(
                        sum(op["self"].values()), wall, delta=1e-6)


class Contract(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        os.makedirs(BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(SPEC["command"] + [
                "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=d, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, b"")


if __name__ == "__main__":
    unittest.main()
