#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seconds S]

Makes two sets of runs of every workload, interleaved run by run: run i of
both sets uses seed i + 1, and the workload order alternates from run to run.
For each workload and end-to-end metric it prints, per set, the median and
the spread (q3 - q1) / median with statistics.quantiles(n=4), how far the
second set's median moved against the first in the metric's "worse"
direction, and the metric's bound from BENCHMARK.json, plus each set's
attempted and failed counts.

The benchmark is steady when, for every workload, every spread but setup_s's
is within its bound in both sets and every median (setup_s's too) moved by no
more than its bound. The last line gives the verdict, and the exit code is 0
only when it is "steady". A run that exits non-zero (a failed request or a
failed check) stops the command at once.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import run as bench_run  # noqa: E402

SETS = 2


def one_run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d exited %d" % (workload, seed,
                                                       out.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = [w["name"] for w in spec["workloads"]]
    binary = bench_run.build()

    # results[set][workload] = result objects, one per run
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for s in range(SETS):
            for w in order:
                r = one_run(binary, w, i + 1, args.seconds)
                results[s][w].append(r)
                print("run %d set %d %-15s %s" % (
                    i, s + 1, w, " ".join("%s=%.5g" % (k, v["value"])
                                          for k, v in r["metrics"].items())),
                      file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        print("\n%s (%d runs per set, %g s each)" % (w, args.runs, args.seconds))
        print("  %-17s %11s %11s %9s %9s %8s %6s" % (
            "metric", "median 1", "median 2", "spread 1", "spread 2", "moved",
            "bound"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[s][w]]
                    for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            moved = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                moved = -moved
            steady = steady and moved <= bound
            if name != "setup_s":
                steady = steady and max(spreads) <= bound
            print("  %-17s %11.5g %11.5g %9.4f %9.4f %+8.3f %6.3f" % (
                name, medians[0], medians[1], spreads[0], spreads[1], moved,
                bound))
        for s in range(SETS):
            attempted = sum(r["attempted"] for r in results[s][w])
            failed = sum(r["failed"] for r in results[s][w])
            print("  set %d: %d attempted, %d failed" % (s + 1, attempted,
                                                         failed))
    print("\n" + ("steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
