#!/usr/bin/env python3
"""Host CPU of the SDRaD kvcache variant against baseline's.

    python3 bench/host_ratio.py [REV]

Runs `sdrad_cli kvbench --records 1500 --ops 600000 --workers 4`, load
phase included, on --variant baseline and --variant sdrad, alternating
the two, RUNS = 5 times each. A run's host CPU is the user+sys time the child
process used, from resource.getrusage(RUSAGE_CHILDREN). Prints each
variant's median and quartiles and the SDRaD/baseline ratio of the
medians, next to each variant's checked simulated accesses per op (the
`checked accesses` line kvbench prints; a tree whose kvbench has no such
line shows n/a). With REV, REV's committed tree (extracted as
perf_compare.py does, under _build/perf-compare/) is measured too, its
runs interleaved with the working tree's, so both ratios come from the
same host at the same time. Host time is printed only, never written to
committed JSON.
"""

import argparse
import os
import re
import resource
import statistics
import subprocess
import sys

import perf_compare

ROOT = perf_compare.ROOT
KVBENCH = ["kvbench", "--records", "1500", "--ops", "600000", "--workers",
           "4"]
VARIANTS = ["baseline", "sdrad"]
RUNS = 5


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "bin/sdrad_cli.exe"],
                   cwd=tree, check=True, capture_output=True)
    return os.path.join(tree, "_build", "default", "bin", "sdrad_cli.exe")


def cpu_seconds(exe, variant):
    """User+sys seconds of one kvbench run of [variant], and its checked
    accesses per op (None when kvbench does not print them)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([exe] + KVBENCH + ["--variant", variant],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    m = re.search(r"^checked accesses: (\S+) per op$", out, re.M)
    return ((after.ru_utime - before.ru_utime) +
            (after.ru_stime - before.ru_stime), m.group(1) if m else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    args = ap.parse_args()
    trees = [("working tree", ROOT)]
    if args.rev:
        trees.insert(0, (args.rev, perf_compare.checkout(args.rev)))
    exes = [(name, build(tree)) for name, tree in trees]
    times = {(name, v): [] for name, _ in exes for v in VARIANTS}
    accesses = {}
    for i in range(RUNS):
        # Alternate which variant, and which tree, goes first.
        order = [(n, e, v) for n, e in exes for v in VARIANTS]
        if i % 2:
            order.reverse()
        for name, exe, v in order:
            cpu, per_op = cpu_seconds(exe, v)
            times[(name, v)].append(cpu)
            accesses[(name, v)] = per_op
    for name, _ in exes:
        medians = {}
        for v in VARIANTS:
            xs = times[(name, v)]
            q1, q3 = perf_compare.quartiles(xs)
            medians[v] = statistics.median(xs)
            print("%s: %-8s user+sys %.2f s [%.2f, %.2f] over %d runs, "
                  "checked accesses %s per op" % (
                      name, v, medians[v], q1, q3, len(xs),
                      accesses[(name, v)] or "n/a"))
        print("%s: sdrad/baseline host CPU %.2fx" % (
            name, medians["sdrad"] / medians["baseline"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
