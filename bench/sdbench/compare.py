#!/usr/bin/env python3
"""Compare two directories of sdbench result files: a parent and a change.

    python3 bench/sdbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the <workload>-s<seed>.json files sdbench_run writes
(run.sh --out=DIR). For every workload x end-to-end metric the table shows
each side's median and quartiles, the fraction of pairs the change won (runs
paired by seed when the sides share seeds, else in seed order; ties count
for neither side), and a verdict:

  identical     a deterministic replay output, equal on every shared seed
  improved      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile spread
  unresolved    a side's quartile spread exceeds the bound, and not every
                change run beats every parent run
  regressed     the change's median is worse than the parent's by more
                than the bound
  within bound  otherwise
  changed       avg_slowdown, which has no bound, differs on a shared seed

Bounds and directions come from BENCHMARK.json. The decision digests of the
runs sharing a seed are compared too. Exits 1 when a row regressed or a
shared seed's decisions differ.
"""

import argparse
import json
import pathlib
import statistics
import sys

# Deterministic replay outputs: equal on a seed unless decisions changed.
EXACT = {"avg_slowdown", "avg_response_s", "makespan_s", "energy_kwh"}
# Recorded in every result file but not bounded in BENCHMARK.json.
UNBOUNDED = {"avg_slowdown": {"name": "avg_slowdown", "better": "lower", "bound": None}}


def load_runs(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*-s*.json")):
        if path.name.startswith("trace-"):  # sdbench_trace's span dump
            continue
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    if not runs:
        sys.exit(f"compare.py: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(spec, parent, change, pairs, by_seed):
    """Label one workload x metric row; returns (verdict, fraction won)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    if spec["name"] in EXACT and by_seed and all(p == c for p, c in pairs):
        return "identical", won
    if spec["bound"] is None:
        return "changed", won
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if won >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", won
    if spread > spec["bound"] and not all(sign * (c - p) > 0 for p in parent for c in change):
        return "unresolved", won
    if -sign * (cm - pm) / abs(pm) > spec["bound"]:
        return "regressed", won
    return "within bound", won


def main():
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(here.parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    benchmark = json.loads(pathlib.Path(args.benchmark).read_text())
    specs = benchmark["end_to_end"] + list(UNBOUNDED.values())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    failed = False
    print(f"{'workload':15} {'metric':15} {'parent median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40} {'won':>5}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        shared = sorted(set(parent) & set(change))
        if shared:
            run_pairs = [(parent[s], change[s]) for s in shared]
        else:
            run_pairs = list(zip((parent[s] for s in sorted(parent)),
                                 (change[s] for s in sorted(change))))
        for spec in specs:
            name = spec["name"]
            pv = [r["metrics"][name]["value"] for r in parent.values()]
            cv = [r["metrics"][name]["value"] for r in change.values()]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in run_pairs]
            label, won = verdict(spec, pv, cv, pairs, bool(shared))
            failed |= label == "regressed"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:15} {name:15} {pm:15.7g} [{p1:11.7g}, {p3:11.7g}] "
                  f"{cm:15.7g} [{c1:11.7g}, {c3:11.7g}] {won:5.2f}  {label}")
        differ = [s for s in shared
                  if parent[s]["decisions_fnv1a"] != change[s]["decisions_fnv1a"]]
        if differ:
            failed = True
            print(f"{workload:15} decisions differ on seeds {differ}")
        elif shared:
            print(f"{workload:15} decisions identical on {len(shared)} shared seed(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
