#!/usr/bin/env python3
"""Interleaved benchmark pairs: a commit against the working tree.

    python3 bench/perf_compare.py REV [--pairs 10] [--seed 1] [--workload W]...

REV's committed files are extracted under _build/perf-compare/ with git
archive. Each pair runs `perfsuite/run.py --workload W --seed S --seconds
5 --trace 0` in REV's tree and here, alternating which runs first. Per
workload and BENCHMARK.json end-to-end metric it prints both medians
[q1, q3], the pairs the working tree won/lost/tied, and a verdict: gain
(won at least 9 in 10 pairs, medians apart by more than REV's IQR), WORSE
(median worse than REV's by more than the metric's bound), unresolved
(REV's IQR is wider than the bound and the tree does not beat every REV
run) or same. Exits non-zero if a run fails its checks or a metric is WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(rev):
    sha = subprocess.check_output(["git", "rev-parse", rev + "^{commit}"],
                                  cwd=ROOT, text=True).strip()
    dest = os.path.join(ROOT, "_build", "perf-compare", sha[:12])
    if not os.path.isdir(dest):
        os.makedirs(dest + ".part", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest + ".part"],
                       stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("perf_compare: git archive %s failed" % rev)
        os.rename(dest + ".part", dest)
    return dest


def run(tree, workload, seed):
    cmd = [sys.executable, "perfsuite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if p.returncode != 0 or not p.stdout.strip():
        sys.exit("perf_compare: %s failed in %s:\n%s" % (workload, tree,
                                                         p.stderr[-2000:]))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    return (r["correct"] and r["failed"] == 0,
            {k: v["value"] for k, v in r["metrics"].items()})


def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q[0], q[2]


def cell(xs):
    return "%.6g [%.6g, %.6g]" % ((statistics.median(xs),) + quartiles(xs))


def verdict(old, new, better, bound):
    sign = 1 if better == "lower" else -1
    won = sum(sign * (a - b) > 0 for a, b in zip(old, new))
    lost = sum(sign * (a - b) < 0 for a, b in zip(old, new))
    m_old, m_new = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    worse = sign * (m_new - m_old) / abs(m_old) if m_old else 0.0
    if worse > bound:
        v = "WORSE"
    elif won * 10 >= 9 * len(old) and sign * (m_old - m_new) > q3 - q1:
        v = "gain"
    elif (q3 - q1) / abs(m_old or 1) > bound and not (
            max(sign * x for x in new) < min(sign * x for x in old)):
        v = "unresolved"
    else:
        v = "same"
    return won, lost, len(old) - won - lost, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    base = checkout(args.rev)
    failed = False
    for w in workloads:
        sides, bad = {base: [], ROOT: []}, False
        for i in range(args.pairs):
            for tree in ([base, ROOT] if i % 2 == 0 else [ROOT, base]):
                ok, metrics = run(tree, w, args.seed)
                bad |= not ok
                sides[tree].append(metrics)
        failed |= bad
        print("%s: %d pairs, seed %d, %s -> working tree%s" % (
            w, args.pairs, args.seed, args.rev,
            " (A RUN FAILED ITS CHECKS)" if bad else ""))
        print("  %-24s %-40s %-40s %-8s %s" % (
            "metric", args.rev + " median [q1, q3]",
            "tree median [q1, q3]", "W/L/T", "verdict"))
        for m in bench["end_to_end"]:
            old = [r[m["name"]] for r in sides[base]]
            new = [r[m["name"]] for r in sides[ROOT]]
            won, lost, tied, v = verdict(old, new, m["better"], m["bound"])
            failed |= v == "WORSE"
            print("  %-24s %-40s %-40s %-8s %s" % (
                m["name"], cell(old), cell(new),
                "%d/%d/%d" % (won, lost, tied), v), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
