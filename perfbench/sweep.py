#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

For every workload and seed this runs `bash perfbench/run.sh` once from
the repository root, keeps the final JSON line, and prints per metric
the median, the quartiles (as `statistics.quantiles(values, n=4)` gives
them) and the spread: the distance between the quartiles as a share of
the median. Each run's full report is appended to --log.

    python3 perfbench/sweep.py --workloads route-fresh,route-storm \
        --seeds 1-10 --seconds 14 --trace 0 --log .bench_build/sweep.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="route-fresh,route-storm,predict-feedback")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--world-seed", type=int, default=42)
    parser.add_argument("--log", default=".bench_build/sweep.jsonl")
    args = parser.parse_args()

    summary = {}
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    with open(args.log, "a") as log:
        for workload in args.workloads.split(","):
            values = {}
            for seed in args.seeds:
                started = time.time()
                cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace,
                       "--world-seed", str(args.world_seed)]
                run = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.time() - started
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed} failed ({run.returncode}): {run.stderr.strip()}")
                result = json.loads(lines[-1])
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "world_seed": args.world_seed, "wall_s": wall,
                                      "report": lines[:-1], "result": result}) + "\n")
                log.flush()
                print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            summary[workload] = values

    for workload, values in summary.items():
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<30} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:7.3f}")


if __name__ == "__main__":
    main()
