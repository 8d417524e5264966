#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest size (--seconds 1).

    python3 perfsuite/smoke.py

First checks that perfsuite/layer_map.json maps every per-layer metric
of BENCHMARK.json, and only those, to end-to-end metrics and workloads
that BENCHMARK.json names. Then runs every workload twice on seed 42 and
once on seed 7, untraced, and once traced on seed 42. Fails unless every
output check passes, every metric BENCHMARK.json names is printed, and
the two seed-42 runs agree exactly on every simulated metric, the
allocation count and the peak heap.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ["goodput_ops_s", "mean_us", "tail_us", "rss_mb",
                 "host_alloc_words_per_op", "host_heap_mb"]


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfsuite", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or not result or not result["correct"]:
        sys.exit("smoke: %s seed %d trace %d failed (exit %d)\n%s%s"
                 % (workload, seed, trace, p.returncode, p.stdout, p.stderr))
    return result


def map_problems(bench):
    with open(os.path.join(ROOT, "perfsuite", "layer_map.json")) as f:
        layer_map = json.load(f)
    layers = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    problems = ["layer map: %s is not a per-layer metric" % name
                for name in sorted(set(layer_map) - layers)]
    problems += ["layer map: %s is missing" % name
                 for name in sorted(layers - set(layer_map))]
    for name, entry in sorted(layer_map.items()):
        for m in set(entry["moves"]) - end_to_end:
            problems.append("layer map: %s moves unknown metric %s" % (name, m))
        for w in set(entry["workloads"]) - workloads:
            problems.append("layer map: %s names unknown workload %s" % (name, w))
        if not entry["workloads"]:
            problems.append("layer map: %s names no workload" % name)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = map_problems(bench)
    if problems:
        sys.exit("smoke: " + "\nsmoke: ".join(problems))
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for w in (w["name"] for w in bench["workloads"]):
        first, again, other = run(w, 42, 0), run(w, 42, 0), run(w, 7, 0)
        traced = run(w, 42, 1)
        for trace, result in ((0, first), (0, other), (1, traced)):
            missing = set(expected[trace]) - set(result["metrics"])
            if missing:
                problems.append("%s: missing %s" % (w, sorted(missing)))
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s differs on seed 42: %r vs %r"
                                % (w, name, a, b))
        if first["attempted"] != again["attempted"]:
            problems.append("%s: attempted differs on seed 42" % w)
        print("smoke: %s ok" % w, flush=True)
    if problems:
        sys.exit("smoke: " + "\nsmoke: ".join(problems))
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
