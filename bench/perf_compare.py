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
run) or same. After a workload's pairs it runs each side once more with
`--trace 1` and lists every per-layer metric whose value differs by more
than 1% from REV's, so a claimed gain shows the layer it came from.
Exits non-zero if a run fails its checks or a metric is WORSE.

    python3 bench/perf_compare.py REV --same

instead builds the @chaos, @chaos-soak and @chaos-rewind-soak aliases
with --force in REV's tree and here and compares their output, then runs
each tree's bench/main.exe over every experiment but micro (the ids
listed in this tree's bench/main.ml) from a temporary directory, so
neither tree's committed BENCH JSON is rewritten, and compares the
tables less their "[... done in ...]" and "All done in" timing lines: a
change that must keep every simulated number prints the same soaks and
tables. It prints the first differing lines of each output that differs
and exits non-zero if any differs or fails.
"""

import argparse
import difflib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

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


def run(tree, workload, seed, trace=0):
    cmd = [sys.executable, "perfsuite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", str(trace)]
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


def layer_deltas(old, new, rel=0.01):
    """Per-layer metrics whose tree value differs from REV's by more than
    [rel] of REV's value (a metric on one side only always differs)."""
    rows = []
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None or abs(b - a) > rel * abs(a):
            rows.append((name, a, b))
    return rows


def num(x):
    return "-" if x is None else "%.6g" % x


SOAKS = ["@chaos", "@chaos-soak", "@chaos-rewind-soak"]


def alias_output(tree, alias):
    """Exit code and output lines of building [alias] in [tree], less
    dune's directory banners (they name the tree). One job at a time:
    an alias with several actions prints each one's output when it
    finishes, so in parallel their order would follow their speed."""
    p = subprocess.run(["dune", "build", "--root", tree, alias, "--force",
                        "-j", "1"],
                       cwd=tree, capture_output=True, text=True,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    lines = [l for l in (p.stdout + p.stderr).splitlines()
             if not l.startswith(("Entering directory", "Leaving directory"))]
    return p.returncode, lines


def bench_ids():
    """Every experiment id registered in this tree's bench/main.ml but
    micro, whose rows are host timings."""
    src = open(os.path.join(ROOT, "bench", "main.ml")).read()
    return [i for i in re.findall(r'\("([a-z0-9]+)",\s*\w+\.', src)
            if i != "micro"]


def bench_output(tree, ids):
    """Exit code and table lines of [tree]'s bench over [ids], run from a
    fresh directory (the bench writes BENCH_*.json into its working
    directory), less the wall-clock timing lines."""
    p = subprocess.run(["dune", "build", "--root", tree, "bench/main.exe"],
                       cwd=tree, capture_output=True, text=True)
    if p.returncode != 0:
        return p.returncode, (p.stdout + p.stderr).splitlines()
    exe = os.path.join(tree, "_build", "default", "bench", "main.exe")
    with tempfile.TemporaryDirectory() as tmp:
        p = subprocess.run([exe] + ids, cwd=tmp, capture_output=True,
                           text=True)
    lines = [l for l in (p.stdout + p.stderr).splitlines()
             if not re.match(r"\[\S+ done in |All done in ", l)]
    return p.returncode, lines


def compare(name, rev, old_out, new_out, context):
    """Print whether [name]'s output matches; true if it differs or
    failed on either side."""
    (rc_old, old), (rc_new, new) = old_out, new_out
    failed = False
    if rc_old or rc_new:
        print("%s: FAILED (exit %d in %s, %d here)" % (name, rc_old, rev,
                                                        rc_new))
        failed = True
    if old == new:
        print("%s: same output (%d lines)" % (name, len(old)), flush=True)
        return failed
    print("%s: OUTPUT DIFFERS, first differing lines:" % name)
    diff = difflib.unified_diff(old, new, rev, "working tree", n=1,
                                lineterm="")
    for line in list(diff)[:context]:
        print("  " + line)
    return True


def same(rev, base, context=20):
    failed = False
    # Build everything first: an alias whose runners are still being
    # built prints in the order their builds finish.
    for tree in (base, ROOT):
        subprocess.run(["dune", "build", "--root", tree], cwd=tree,
                       capture_output=True)
    for alias in SOAKS:
        failed |= compare(alias, rev, alias_output(base, alias),
                          alias_output(ROOT, alias), context)
    ids = bench_ids()
    failed |= compare("bench tables (%s)" % " ".join(ids), rev,
                      bench_output(base, ids), bench_output(ROOT, ids),
                      context)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--same", action="store_true",
                    help="compare the soak aliases' output instead")
    args = ap.parse_args()
    base = checkout(args.rev)
    if args.same:
        return same(args.rev, base)
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
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
        traced, bad = {}, False
        for tree in (base, ROOT):
            ok, traced[tree] = run(tree, w, args.seed, trace=1)
            bad |= not ok
        failed |= bad
        rows = layer_deltas(traced[base], traced[ROOT])
        print("  per-layer, --trace 1, one run each%s: %s" % (
            " (A RUN FAILED ITS CHECKS)" if bad else "",
            "%d differ by more than 1%%" % len(rows) if rows
            else "none differs by more than 1%"))
        if rows:
            print("    %-40s %-16s %s" % ("metric", args.rev, "tree"))
        for name, a, b in rows:
            print("    %-40s %-16s %s" % (name, num(a), num(b)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
