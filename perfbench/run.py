#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs its workloads.

    python3 perfbench/run.py [--workload <exact-tables|serve-interval|cold-text>]
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--makeup 1]

Run from anywhere inside a checkout: the build goes to .bench_build/perfbench
at the checkout root (configured once, rebuilt incrementally on every call),
build output goes to stderr, and the binary's stdout is passed through, so the
last line of stdout is the result object. Without --workload, every workload
runs in turn, each in its own process with the same arguments, and each
result object follows a "workload <name>" line. The exit code is the binary's
(the first non-zero one without --workload), or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "phom_perfbench")
WORKLOADS = ("exact-tables", "serve-interval", "cold-text")


def build():
    """Configures (once) and builds phom_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "solver.h")):
        sys.exit("perfbench: library sources not found under " + ROOT + "/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "phom_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return BINARY


def main():
    binary = build()
    args = sys.argv[1:]
    if "--workload" in args:
        sys.stdout.flush()
        return subprocess.run([binary] + args).returncode
    code = 0
    for workload in WORKLOADS:
        print("workload " + workload, flush=True)
        returncode = subprocess.run(
            [binary, "--workload", workload] + args).returncode
        code = code or returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
