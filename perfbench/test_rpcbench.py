#!/usr/bin/env python3
"""The benchmark's own tests: smoke-sized runs of every workload.

    python3 perfbench/test_rpcbench.py

Builds rpcbench through run.py (Release, .bench_build/rpcbench) and, for two
seeds, runs each workload untraced and traced at --scale smoke. Asserts that
every metric declared in BENCHMARK.json prints exactly once with its unit,
that no check failed, and that the exact counts and model fingerprints repeat
bit-for-bit between the traced and the untraced run of a seed.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (3, 4)
# Exact per-layer counts a traced run must report equal to the fingerprint.
EXACT_LAYER_METRICS = ("sim.events", "executor.rounds", "trace.spans", "checkpoint.bytes",
                       "checkpoint.writes", "model.rct_p50_us", "model.rct_p99_us",
                       "model.tax_frac", "model.error_frac")


def run_bench(*args):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


class Run:
    """One smoke run, parsed."""

    def __init__(self, workload, seed, trace):
        proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--scale", "smoke")
        self.returncode = proc.returncode
        self.stderr = proc.stderr
        lines = proc.stdout.strip().splitlines()
        self.result = json.loads(lines[-1]) if lines else None
        self.fingerprint = None
        self.printed = []  # (name, unit) of every "metric" line.
        for line in lines:
            if line.startswith("fingerprint "):
                self.fingerprint = json.loads(line[len("fingerprint "):])
            elif line.startswith("metric "):
                fields = line.split()
                self.printed.append((fields[1], fields[3]))


class SmokeTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    cls.runs[(workload, seed, trace)] = Run(workload, seed, trace)

    def check_metrics(self, run, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        self.assertTrue(run.result["correct"])
        self.assertEqual(run.result["failed"], 0)
        self.assertGreaterEqual(run.result["attempted"], 1)
        metrics = run.result["metrics"]
        self.assertEqual(set(metrics), set(expected))
        for name, unit in expected.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
        self.assertEqual(sorted(run.printed), sorted(expected.items()))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for (workload, seed, trace), run in self.runs.items():
            if trace == 0:
                with self.subTest(workload=workload, seed=seed):
                    self.check_metrics(run, SPEC["end_to_end"])
                    for name, entry in run.result["metrics"].items():
                        self.assertGreater(entry["value"], 0, name)

    def test_traced_runs_print_every_per_layer_metric(self):
        for (workload, seed, trace), run in self.runs.items():
            if trace == 1:
                with self.subTest(workload=workload, seed=seed):
                    self.check_metrics(run, SPEC["per_layer"])

    def test_fingerprints_repeat_between_traced_and_untraced_runs(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    untraced = self.runs[(workload, seed, 0)]
                    traced = self.runs[(workload, seed, 1)]
                    self.assertIsNotNone(untraced.fingerprint)
                    self.assertEqual(untraced.fingerprint, traced.fingerprint)

    def test_traced_exact_counts_equal_the_fingerprint(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                run = self.runs[(workload, seed, 1)]
                for name in EXACT_LAYER_METRICS:
                    if name in run.fingerprint:
                        with self.subTest(workload=workload, seed=seed, metric=name):
                            self.assertEqual(run.result["metrics"][name]["value"],
                                             run.fingerprint[name])

    def test_seeds_change_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.runs[(workload, SEEDS[0], 0)].fingerprint,
                                    self.runs[(workload, SEEDS[1], 0)].fingerprint)

    def test_bad_arguments_fail_without_a_result(self):
        proc = run_bench("--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
