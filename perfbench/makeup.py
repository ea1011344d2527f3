#!/usr/bin/env python3
"""Regenerates the make-up report recorded in perfbench/README.md.

    python3 perfbench/makeup.py [--seeds 1,2]

For each workload and seed it prints the binary's --makeup report (markdown):
instance classes and sizes, label counts, the query and UCQ mix per cell, the
share of requests each engine answered, and the exact answers' bit sizes. The
latency column is one untimed-for-the-record round on the machine at hand.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import run as bench_run  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()
    binary = bench_run.build()
    for workload in bench_run.WORKLOADS:
        for seed in args.seeds.split(","):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", seed, "--makeup",
                 "1"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if out.returncode != 0:
                sys.exit("perfbench: make-up of %s seed %s failed" % (workload,
                                                                     seed))
            sys.stdout.write(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
