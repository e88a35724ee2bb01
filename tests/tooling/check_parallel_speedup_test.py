#!/usr/bin/env python3
"""Self-test for tools/check_parallel_speedup.py against fixed bench JSONs.

The gate compares the median real_time of each BM_MiniFleetSharded workers
row over its repetitions. These fixtures pin its verdicts: a 1.3x-slower
median fails (exit 1) even when the file's aggregate rows claim otherwise, a
single slow repetition among five passes (exit 0), a file with one repetition
per row still gates on those two times, and a missing workers:1 row is
malformed input (exit 2).

Usage: check_parallel_speedup_test.py <repo root>
"""

import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(sys.argv.pop(1) if len(sys.argv) > 1 else ".").resolve()
SCRIPT = ROOT / "tools" / "check_parallel_speedup.py"
FIXTURES = ROOT / "tests" / "tooling" / "fixtures" / "parallel_speedup"


def gate(fixture, *extra):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(FIXTURES / fixture), "--shards", "8", *extra],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


class CheckParallelSpeedupTest(unittest.TestCase):
    def test_slow_median_fails(self):
        code, out = gate("slow_median.json", "--max-slowdown", "1.2")
        self.assertEqual(code, 1, out)
        self.assertIn("ratio 1.300", out)

    def test_one_noisy_repetition_passes(self):
        code, out = gate("one_noisy_repetition.json", "--max-slowdown", "1.2")
        self.assertEqual(code, 0, out)
        self.assertIn("ratio 1.010", out)

    def test_single_repetition_compares_the_two_times(self):
        self.assertEqual(gate("single_repetition.json", "--max-slowdown", "1.2")[0], 0)
        self.assertEqual(gate("single_repetition.json", "--max-slowdown", "1.1")[0], 1)

    def test_missing_pair_is_malformed(self):
        code, out = gate("slow_median.json", "--shards", "4")
        self.assertEqual(code, 2, out)

    def test_unreadable_file_is_malformed(self):
        self.assertEqual(gate("no_such_file.json")[0], 2)


if __name__ == "__main__":
    unittest.main()
