#!/usr/bin/env python3
"""Builds rpcbench (Release) from the sources of this checkout and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|smoke]

Run from the root of a checkout. The build goes to .bench_build/rpcbench,
traced runs write their spans to .bench_build/traces/, and fleet checkpoint
stores live under .bench_build/work/ while a run lasts. Build output goes to
stderr; the benchmark's own stdout is passed through, so its last line is the
result object. `--workload all` runs the four workloads in turn, each printing
its own result line, and exits non-zero if any of them does. Exits non-zero,
without a result, when the build fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("catalog_scan", "fleet_des", "fleet_sharded", "rpc_real_bytes")


def run_timeout_s(seconds):
    """Longest one run may take: its passes fill --seconds, and the last one
    may overrun by a pass, which is well under a minute at full scale."""
    return seconds * 2 + 60


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    return parser.parse_args()


def build(root, build_dir):
    """Configures (once) and builds the rpcbench target; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "rpcbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = build_dir / "rpcbench"
    return binary if binary.exists() else None


def main():
    args = parse_args()
    root = pathlib.Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "rpcbench")
    if binary is None:
        print("rpcbench: build failed", file=sys.stderr)
        return 3
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run(binary, out_dir, workload, args) for workload in workloads]
    return next((code for code in codes if code != 0), 0)


def run(binary, out_dir, workload, args):
    """Runs one workload; returns its exit code."""
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--work-dir", str(work_dir)]
    if args.trace == "1":
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"rpcbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
