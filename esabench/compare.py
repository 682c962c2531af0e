#!/usr/bin/env python3
"""Compare two sets of ESA benchmark runs, or summarize one set.  Stdlib only.

    python3 esabench/compare.py PARENT_DIR CHANGE_DIR
    python3 esabench/compare.py --summary DIR [--host-class NAME]

A set is a directory of bench_esa results files (BENCH_esa_*.json, as
written by `bench_esa --out` or esabench/sweep.py); runs whose checks failed
are left out and counted.  End-to-end metrics come from untraced runs and
per-layer metrics from traced runs (sweep.py --trace 1), so tracing overhead
never mixes into the end-to-end numbers.

Comparison prints one row per (workload, metric) present in both sets:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side) AND its median beats the parent's by more than the
              parent's interquartile range.
  worse       end-to-end metric: the change's median is worse than the
              parent's by more than the metric's bound in BENCHMARK.json.
              Per-layer metric: the pairs rule above, in the other direction.
  unresolved  end-to-end metric whose parent spread (IQR / median) is wider
              than its bound, unless every change run beats every parent run.
  no worse    everything else.

Pairs match runs of the same seed when both sets used the same seeds, else
runs in file-name order.  Quartiles are statistics.quantiles(values, n=4).
The summary prints, per workload and metric, the median, quartiles and
IQR / median as JSON (the format of esabench/baseline/*.json): every metric
of the untraced runs, and the per-layer metrics of the traced runs.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"], "kind": "end_to_end"}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"better": m["better"], "bound": None, "kind": "per_layer"}
    return spec, metrics


def load_runs(directory, traced):
    """workload -> list of result dicts (checked runs only), plus skip counts."""
    runs, skipped = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError):
            continue
        if result.get("schema") != "esa-v1" or bool(result.get("trace")) != traced:
            continue
        workload = result["workload"]
        if not result.get("correct", False):
            skipped[workload] = skipped.get(workload, 0) + 1
            continue
        runs.setdefault(workload, []).append(result)
    return runs, skipped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"] and r["metrics"][metric]["value"] is not None]


def summarize(runs, only=None):
    out = {}
    for workload, results in sorted(runs.items()):
        rows = {}
        names = sorted({name for r in results for name in r["metrics"]
                        if only is None or name in only})
        for name in names:
            vals = values_of(results, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            rows[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_frac": (q3 - q1) / med if med else None,
            }
        out[workload] = {"runs": len(results), "seeds": sorted(r["seed"] for r in results),
                         "metrics": rows}
    return out


def pairs(parent, change, metric):
    def by_seed(runs):
        return {r["seed"]: r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]}
    p, c = by_seed(parent), by_seed(change)
    if set(p) == set(c):
        return [(p[s], c[s]) for s in sorted(p)]
    return list(zip(values_of(parent, metric), values_of(change, metric)))


def verdict(parent, change, metric, rule):
    pv, cv = values_of(parent, metric), values_of(change, metric)
    if not pv or not cv:
        return None
    lower = rule["better"] == "lower"

    def better(a, b):  # a better than b
        return a < b if lower else a > b

    p1, pmed, p3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    matched = pairs(parent, change, metric)
    wins = sum(1 for p, c in matched if better(c, p))
    losses = sum(1 for p, c in matched if better(p, c))
    gap = abs(cmed - pmed)
    iqr = p3 - p1
    row = {"parent_median": pmed, "change_median": cmed, "parent_iqr": iqr,
           "pairs": len(matched), "wins": wins, "losses": losses}
    if matched and wins * 10 >= 9 * len(matched) and gap > iqr and better(cmed, pmed):
        row["verdict"] = "improved"
        return row
    bound = rule["bound"]
    if bound is None:
        lost = matched and losses * 10 >= 9 * len(matched) and gap > iqr and better(pmed, cmed)
        row["verdict"] = "worse" if lost else "no worse"
        return row
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) if pmed else 0.0
    if worse_by > bound:
        row["verdict"] = "worse"
    elif pmed and iqr / abs(pmed) > bound and not all(better(c, p) for p in pv for c in cv):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "no worse"
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or DIR with --summary")
    parser.add_argument("--summary", action="store_true", help="summarize one set as JSON")
    parser.add_argument("--host-class", default="", help="label stored in the summary")
    args = parser.parse_args()

    spec, rules = load_spec()
    per_layer = {name for name, rule in rules.items() if rule["kind"] == "per_layer"}
    if args.summary:
        runs, skipped = load_runs(args.dirs[0], traced=False)
        traced, traced_skipped = load_runs(args.dirs[0], traced=True)
        hosts = [r["host"] for rs in list(runs.values()) + list(traced.values()) for r in rs]
        summary = {
            "host_class": args.host_class,
            "host": hosts[0] if hosts else {},
            "run_seconds": spec["run_seconds"],
            "failed_runs": {"untraced": skipped, "traced": traced_skipped},
            "invalid_lag_runs": {w: sum(1 for r in rs if not r.get("valid", True))
                                 for w, rs in runs.items()},
            "workloads": summarize(runs),
            "traced_per_layer": summarize(traced, only=per_layer),
        }
        json.dump(summary, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0

    if len(args.dirs) != 2:
        parser.error("comparison needs PARENT_DIR and CHANGE_DIR")
    sets = {}
    for label, directory in (("parent", args.dirs[0]), ("change", args.dirs[1])):
        for traced in (False, True):
            runs, skipped = load_runs(directory, traced)
            sets[(label, traced)] = runs
            for workload, count in sorted(skipped.items()):
                print("%s: %d %s%s run(s) failed their checks and were left out" % (
                    label, count, "traced " if traced else "", workload))
    print("%-8s %-30s %-11s %12s %12s %12s %7s" % ("workload", "metric", "verdict", "parent_med",
                                                  "change_med", "parent_iqr", "wins"))
    worse = 0
    for metric, rule in rules.items():
        traced = rule["kind"] == "per_layer"
        parent, change = sets[("parent", traced)], sets[("change", traced)]
        for workload in sorted(set(parent) & set(change)):
            row = verdict(parent[workload], change[workload], metric, rule)
            if row is None:
                continue
            worse += row["verdict"] == "worse" and rule["kind"] == "end_to_end"
            print("%-8s %-30s %-11s %12.6g %12.6g %12.6g %3d/%-3d" % (
                workload, metric, row["verdict"], row["parent_median"], row["change_median"],
                row["parent_iqr"], row["wins"], row["pairs"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
