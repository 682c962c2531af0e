#!/usr/bin/env python3
"""Run every workload of the ESA benchmark several times and report spreads.

    python3 esabench/sweep.py --out DIR [--runs 10] [--first-seed 1]
                              [--seconds S] [--trace 0|1] [--workloads a,b]

Run r uses seed first_seed + r, and the workload order alternates between
runs.  Each run's results file lands in DIR as BENCH_esa_<workload>_s<seed>.json
(.traced.json with --trace 1; compare.py reads the directory).  At the end it
prints, per workload and reported metric, the median, the spread (interquartile
range / median, with
statistics.quantiles(values, n=4)) and the metric's bound from BENCHMARK.json;
a spread of a third of the bound or more is flagged.  Stdlib only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    os.makedirs(args.out, exist_ok=True)

    values = {}  # (workload, metric) -> [value per run]
    failures = 0
    started = time.time()
    for r in range(args.runs):
        seed = args.first_seed + r
        for workload in (workloads if r % 2 == 0 else list(reversed(workloads))):
            out = os.path.join(args.out, "BENCH_esa_%s_s%d%s.json" % (
                workload, seed, ".traced" if args.trace else ""))
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", out]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                failures += 1
                print("run %s seed %d FAILED (exit %d)" % (workload, seed, proc.returncode))
                continue
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            print("run %-8s seed %-3d %5.1fs  %s" % (workload, seed, time.time() - t0, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print("\n%d runs in %.0f s, %d failed" % (args.runs * len(workloads), time.time() - started,
                                             failures))
    print("%-8s %-30s %12s %8s %6s" % ("workload", "metric", "median", "spread", "bound"))
    for (workload, name), vals in sorted(values.items()):
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- spread >= bound/3" if bound and spread >= bound / 3 else ""
        print("%-8s %-30s %12.6g %8.4f %6s%s" % (workload, name, med, spread,
                                                 "-" if bound is None else bound, flag))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
