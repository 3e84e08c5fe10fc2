#!/usr/bin/env python3
"""Repeat-run spread of the benchmark, the way its acceptance is judged.

    python3 perfbench/steadiness.py --workloads release,serve \
        --seeds 1-10 [--sets 2] [--traced 3] [--out perfbench/steadiness.json]

Runs `perfbench/run.py --trace 0` once per (workload, set, seed), seeds in
order, and reports for every end-to-end metric a record carries (gated or
not) the values' median and quartile spread (q3 - q1) / median as Python's
statistics.quantiles(n=4) gives them, next to the metric's bound if it has
one. With two sets it also reports how far the second set's median moved
from the first. One rule applies to every metric, gated ones included: a
metric whose spread in any set or whose move exceeds a tenth is listed as
not repeating (`demoted`), and may not be gated. --traced N adds N
`--trace 1` runs per workload and reports each metric's traced median
against the first set's (the tracing overhead).
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
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import manifest  # noqa: E402

DEMOTE_ABOVE = 0.10


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(workload, seeds, seconds, trace):
    values, walls = {}, []
    failed = attempted = incorrect = 0
    for seed in seeds:
        record, result, wall = run_once(workload, seed, seconds, trace)
        walls.append(wall)
        failed += result["failed"]
        attempted += result["attempted"]
        incorrect += not result["correct"]
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {"values": values, "failed": failed, "attempted": attempted,
            "incorrect_runs": incorrect, "run_wall_s": walls}


def summarize(sets, traced, bounds):
    summary = {"failed": sum(s["failed"] for s in sets),
               "attempted": sum(s["attempted"] for s in sets),
               "incorrect_runs": sum(s["incorrect_runs"] for s in sets),
               "run_wall_s_max": max(max(s["run_wall_s"]) for s in sets),
               "metrics": {}, "demoted": []}
    for name in sets[0]["values"]:
        per_set = [spread(s["values"].get(name, [])) for s in sets]
        entry = {"sets": per_set}
        if name in bounds:
            entry["bound"] = bounds[name]
        if len(per_set) == 2 and per_set[0] and per_set[1]:
            entry["median_move"] = per_set[1]["median"] / per_set[0]["median"] - 1
        if traced and per_set[0] and traced["values"].get(name):
            entry["traced_median"] = statistics.median(traced["values"][name])
            entry["tracing_overhead"] = entry["traced_median"] / per_set[0]["median"] - 1
        summary["metrics"][name] = entry
        worst = max((p["spread"] for p in per_set if p), default=0.0)
        if worst > DEMOTE_ABOVE or abs(entry.get("median_move", 0.0)) > DEMOTE_ABOVE:
            summary["demoted"].append(name)
    if traced:
        summary["traced_runs"] = {k: traced[k] for k in
                                  ("failed", "attempted", "incorrect_runs", "run_wall_s")}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in manifest.END_TO_END}

    report = {"seconds": args.seconds, "seeds": seeds, "sets": args.sets,
              "demote_above": DEMOTE_ABOVE, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = [run_set(workload, seeds, args.seconds, 0) for _ in range(args.sets)]
        traced = run_set(workload, seeds[:args.traced], args.seconds, 1) if args.traced else None
        summary = summarize(sets, traced, bounds)
        report["workloads"][workload] = summary
        for name, entry in summary["metrics"].items():
            spreads = " ".join(f"{p['spread']:.3f}" for p in entry["sets"] if p)
            medians = " ".join(f"{p['median']:.4g}" for p in entry["sets"] if p)
            print(f"{workload:12s} {name:16s} median {medians:20s} spread {spreads:12s} "
                  f"move {entry.get('median_move', 0):+.3f} "
                  f"overhead {entry.get('tracing_overhead', 0):+.3f} "
                  f"bound {entry.get('bound', '-')}", file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
