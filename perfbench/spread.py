#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the root of the repository:

    python3 perfbench/spread.py --workload execute --seeds 1-10 [--out FILE]

Runs the benchmark once per seed (--trace 0, BENCHMARK.json's run_seconds)
and, for every end-to-end metric, prints the median, the quartiles
(statistics.quantiles with n=4) and the spread: the distance between the
first and third quartile as a share of the median, next to the metric's
bound.  With --out, the raw values and the summary are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seeds = seeds_of(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "result": result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    summary = {}
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name]}
        print(f"{name:30} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bounds[name]:>6}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
