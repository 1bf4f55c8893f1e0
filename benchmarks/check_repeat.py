#!/usr/bin/env python3
"""Repeatability self-check of the benchmark described by ../BENCHMARK.json.

Default: every workload twice on the same build and seed, untraced and traced. Prints
min / median / MAD per metric, fails if an end-to-end metric differs between the runs by
more than its own bound, and fails if an exact count differs at all.

    python3 benchmarks/check_repeat.py                      # the self-check
    python3 benchmarks/check_repeat.py --seconds 1          # smoke: all workloads + traces
    python3 benchmarks/check_repeat.py --runs 10 --vary-seed --no-trace
        # the acceptance procedure: ten seeds per workload, quartile spread per metric
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Per-layer metrics that must repeat exactly for a given seed.
EXACT = (
    "core.candidate_loops core.selected_loops core.sync_segments core.waits core.signals "
    "core.signals_removed_fraction core.private_words_per_iter ir.image_ops frontend.instrs "
    "service.cache_hit_ratio service.cache_misses service.cache_evictions "
    "service.cache_entries service.jobs_failed simulator.predicted_scaling_2c"
).split()


def run(spec, workload, seed, seconds, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        notes = [l for l in done.stdout.splitlines() if l.startswith("# FAILED")]
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                 f"operations failed\n" + "\n".join(notes))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    mad = statistics.median(abs(v - med) for v in values)
    return min(values), med, mad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed+i; report the quartile spread against bound/3")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []

    for workload in names:
        seeds = [args.seed + (i if args.vary_seed else 0) for i in range(args.runs)]
        runs = [run(spec, workload, seed, seconds, 0) for seed in seeds]
        print(f"== {workload}: {args.runs} untraced runs, seeds {seeds}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            low, med, mad = summarize(values)
            if args.vary_seed and len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                limit = bound / 3
            else:
                spread = (max(values) - low) / med
                limit = bound
            verdict = "ok" if spread <= limit or name == "setup_s" else "WIDE"
            print(f"  {name:<24} min {low:>12.4f} median {med:>12.4f} MAD {mad:>10.4f} "
                  f"spread {spread:>7.4f} limit {limit:.4f} {verdict}")
            if verdict != "ok":
                failures.append(f"{workload} {name}: spread {spread:.4f} > {limit:.4f}")
        if args.no_trace:
            continue
        traced = [run(spec, workload, args.seed, seconds, 1) for _ in range(args.runs)]
        print(f"== {workload}: {args.runs} traced runs, seed {args.seed}")
        for name in traced[0]:
            values = [r[name] for r in traced]
            low, med, mad = summarize(values)
            exact = name in EXACT
            differs = exact and len(set(values)) > 1
            print(f"  {name:<32} min {low:>14.4f} median {med:>14.4f} MAD {mad:>12.4f}"
                  f"{'  exact' if exact else ''}{'  DIFFERS' if differs else ''}")
            if differs:
                failures.append(f"{workload} {name}: exact count differs: {values}")

    if failures:
        sys.exit("check_repeat: FAILED\n  " + "\n  ".join(failures))
    print("check_repeat: ok")


if __name__ == "__main__":
    main()
