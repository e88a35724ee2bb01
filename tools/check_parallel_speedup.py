#!/usr/bin/env python3
"""Gate on the parallel-executor scaling contract in a bench_simcore JSON.

Reads a google-benchmark JSON produced with a BM_MiniFleetSharded filter and
enforces, for a given shard count:

  median real_time(workers = max measured)
      <= max_slowdown * median real_time(workers = 1)

Each median is taken over every repetition of that row in the file (run the
sweep with --benchmark_repetitions=N --benchmark_enable_random_interleaving=true
so the repetitions of the two rows interleave in time); a file with one
repetition per row reduces to comparing the two single times. One repetition
landing in a slow phase of a shared host cannot fail the gate on its own.

i.e. adding worker threads must never cost more than the allowed slop (the
ShardExecutor clamps workers to hardware concurrency, so even a 1-CPU host
only pays wake/park latency, bounded well under 20%). On hosts with 4+ CPUs
the ratio should be well below 1.0; the observed speedup is printed so CI
logs double as a scaling record, but only the slowdown bound fails the job —
CI machines are too noisy to gate on an absolute speedup.

Usage: check_parallel_speedup.py BENCH.json [--shards 8] [--max-slowdown 1.2]

Exit codes: 0 ok, 1 contract violated, 2 malformed/missing input.
"""

import argparse
import json
import re
import statistics
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="bench_simcore --benchmark_out JSON")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--max-slowdown", type=float, default=1.2)
    args = parser.parse_args()

    try:
        with open(args.bench_json, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"ERROR: cannot read {args.bench_json}: {err}", file=sys.stderr)
        return 2

    # Aggregate runs (mean/median/stddev) would double-count; keep raw
    # repetitions only and take their median here. run_type is absent in very
    # old library versions, in which case every entry is a plain run.
    pattern = re.compile(
        rf"^BM_MiniFleetSharded/shards:{args.shards}/workers:(\d+)\b"
    )
    repetitions = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        match = pattern.match(bench.get("name", ""))
        if not match:
            continue
        repetitions.setdefault(int(match.group(1)), []).append(float(bench["real_time"]))
    by_workers = {w: statistics.median(times) for w, times in repetitions.items()}

    if 1 not in by_workers or len(by_workers) < 2:
        print(
            f"ERROR: {args.bench_json} has no workers:1 + workers:N pair for "
            f"shards:{args.shards} (found workers={sorted(by_workers)}); "
            "was the benchmark filter too narrow?",
            file=sys.stderr,
        )
        return 2

    base = by_workers[1]
    max_workers = max(by_workers)
    ratio = by_workers[max_workers] / base
    num_cpus = data.get("context", {}).get("num_cpus", "?")
    print(
        f"shards:{args.shards}  median workers:1 = {base:.0f} ns/iter, "
        f"workers:{max_workers} = {by_workers[max_workers]:.0f} ns/iter "
        f"(ratio {ratio:.3f}, speedup {1.0 / ratio:.2f}x, host cpus {num_cpus})"
    )
    for workers in sorted(by_workers):
        times = " ".join(f"{t:.0f}" for t in repetitions[workers])
        print(
            f"  workers:{workers:<3d} median {by_workers[workers]:12.0f} ns/iter "
            f"over {len(repetitions[workers])} repetition(s): {times}"
        )

    if ratio > args.max_slowdown:
        print(
            f"FAIL: workers:{max_workers} is {ratio:.3f}x slower than workers:1 "
            f"(limit {args.max_slowdown}x) — the spin-free/clamped coordination "
            "contract is broken.",
            file=sys.stderr,
        )
        return 1
    print(f"OK: ratio {ratio:.3f} <= {args.max_slowdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
