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
run) or same. Under host_alloc_words_per_op it prints, per side, the
host words per op of perfsuite's set-up-only runs (read from the
host_spans each run writes with --json into a temporary file): the
metric counts set-up too, so a change that moves words into or out of
set-up is told apart from one on the run path. After the end-to-end
metrics it prints each side's host CPU per op of the measured run (the
`run` span's cpu_s over the attempted ops, from the same detail), as
median [q1, q3] with pair wins: information for a change that reports
host time, with no verdict, since host time is not a BENCHMARK.json
metric and spreads by several percent between runs of one binary.
After a workload's pairs
it runs each side once more with
`--trace 1` and lists every per-layer metric whose value differs by more
than 1% from REV's, so a claimed gain shows the layer it came from. Host
timings (simkern.host_cpu_ns_per_op, every *_host_ns and
telemetry.trace_cpu_overhead) are left out of that list: one run per side
cannot tell their change from their run-to-run noise.
Exits non-zero if a run fails its checks or a metric is WORSE.

    python3 bench/perf_compare.py REV --same

instead builds the @chaos, @chaos-soak and @chaos-rewind-soak aliases
with --force in REV's tree and here and compares their output, then runs
each tree's bench/main.exe over every experiment but micro (the ids
listed in this tree's bench/main.ml) from a temporary directory, so
neither tree's committed BENCH JSON is rewritten, and compares the
tables less their "[... done in ...]" and "All done in" timing lines,
and last runs perfsuite once per tree, workload and seed (1 and 42)
with --trace 1 and compares every metric but the host ones
(host_alloc_words_per_op, host_heap_mb, setup_s,
telemetry.trace_alloc_overhead and the host timings named above): a
change that must keep every simulated number prints the same soaks,
tables and metrics. It prints the first differing lines of each output
that differs, and each metric that differs with both values, and exits
non-zero if any differs or fails.
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


def setup_words(detail):
    """Host words per measured op of the set-up-only runs (construction,
    load phase, teardown; ops = 0) in a perfsuite --json detail: the
    median over its set-up spans of their minor words, over the measured
    run's op count. host_alloc_words_per_op counts set-up too, so words
    moved into or out of set-up show here and not on their own there."""
    words = [h["minor_words"] for h in detail["host_spans"]
             if h["name"].startswith("setup.")]
    ops = detail["simulated"]["attempted"]
    return statistics.median(words) / ops if words and ops else None


def run_cpu(detail):
    """Host CPU nanoseconds per attempted op of the measured run: the
    cpu_s of perfsuite's `run` span in a --json detail over the run's op
    count."""
    cpu = [h["cpu_s"] for h in detail["host_spans"] if h["name"] == "run"]
    ops = detail["simulated"]["attempted"]
    return cpu[0] * 1e9 / ops if cpu and ops else None


def run(tree, workload, seed, trace=0):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "detail.json")
        cmd = [sys.executable, "perfsuite/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "5", "--trace", str(trace),
               "--json", path]
        p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
        if p.returncode != 0 or not p.stdout.strip():
            sys.exit("perf_compare: %s failed in %s:\n%s" % (
                workload, tree, p.stderr[-2000:]))
        r = json.loads(p.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in r["metrics"].items()}
        if not trace:
            with open(path) as f:
                detail = json.load(f)
            metrics[SETUP_WORDS] = setup_words(detail)
            metrics[RUN_CPU] = run_cpu(detail)
    return r["correct"] and r["failed"] == 0, metrics


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


def host_timing(name):
    """Whether [name] is timed on the host clock: from one traced run
    per side, such a metric moves by more than 1% between runs of the
    same tree."""
    return (name == "simkern.host_cpu_ns_per_op"
            or name.endswith("_host_ns")
            or name == "telemetry.trace_cpu_overhead")


def layer_deltas(old, new, rel=0.01):
    """Per-layer metrics, host timings aside, whose tree value differs
    from REV's by more than [rel] of REV's value (a metric on one side
    only always differs)."""
    rows = []
    for name in list(old) + [n for n in new if n not in old]:
        if host_timing(name):
            continue
        a, b = old.get(name), new.get(name)
        if a is None or b is None or abs(b - a) > rel * abs(a):
            rows.append((name, a, b))
    return rows


# Host measurements that run.py reports next to the simulated metrics:
# --same leaves them out, with the host timings.
HOST_METRICS = {"host_alloc_words_per_op", "host_heap_mb", "setup_s",
                "telemetry.trace_alloc_overhead"}

# The seeds --same runs perfsuite at.
SAME_SEEDS = (1, 42)


def num(x):
    return "-" if x is None else "%.6g" % x


SOAKS = ["@chaos", "@chaos-soak", "@chaos-rewind-soak"]

# Not a BENCHMARK.json metric: the set-up runs' host words per op, read
# from each untraced run's --json detail and printed under
# host_alloc_words_per_op.
SETUP_WORDS = "  of which set-up"

# Not a BENCHMARK.json metric either: the measured run's host CPU per
# op, printed after the end-to-end metrics with pair wins and no
# verdict.
RUN_CPU = "host CPU ns/op (run)"


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
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in [w["name"] for w in bench["workloads"]]:
        for seed in SAME_SEEDS:
            failed |= same_metrics(rev, base, w, seed)
    return 1 if failed else 0


def same_metrics(rev, base, workload, seed):
    """Print whether one traced perfsuite run per tree gives every
    simulated metric of [workload] at [seed] the same value; true if one
    differs or a run failed its checks."""
    sides = []
    for tree in (base, ROOT):
        ok, metrics = run(tree, workload, seed, trace=1)
        sides.append((ok, {k: v for k, v in metrics.items()
                           if k not in HOST_METRICS and not host_timing(k)}))
    (ok_old, old), (ok_new, new) = sides
    name = "perfsuite %s, seed %d" % (workload, seed)
    if not (ok_old and ok_new):
        print("%s: A RUN FAILED ITS CHECKS" % name)
    rows = [(k, old.get(k), new.get(k))
            for k in list(old) + [k for k in new if k not in old]
            if old.get(k) != new.get(k)]
    if not rows:
        print("%s: same metrics (%d)" % (name, len(old)), flush=True)
        return not (ok_old and ok_new)
    print("%s: METRICS DIFFER" % name)
    print("    %-40s %-16s %s" % ("metric", rev, "tree"))
    for k, a, b in rows:
        print("    %-40s %-16s %s" % (k, num(a), num(b)), flush=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--same", action="store_true",
                    help="compare the soaks, bench tables and perfsuite's "
                    "simulated metrics instead")
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
            if m["name"] == "host_alloc_words_per_op":
                old = [r[SETUP_WORDS] for r in sides[base]]
                new = [r[SETUP_WORDS] for r in sides[ROOT]]
                if None not in old + new:
                    print("  %-24s %-40s %-40s" % (SETUP_WORDS, cell(old),
                                                   cell(new)), flush=True)
        old = [r[RUN_CPU] for r in sides[base]]
        new = [r[RUN_CPU] for r in sides[ROOT]]
        if None not in old + new:
            won = sum(b < a for a, b in zip(old, new))
            lost = sum(b > a for a, b in zip(old, new))
            print("  %-24s %-40s %-40s %-8s %s" % (
                RUN_CPU, cell(old), cell(new),
                "%d/%d/%d" % (won, lost, len(old) - won - lost),
                "(no verdict)"), flush=True)
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
        print("    single-run host timings are not compared "
              "(simkern.host_cpu_ns_per_op, *_host_ns, "
              "telemetry.trace_cpu_overhead)")
        if rows:
            print("    %-40s %-16s %s" % ("metric", args.rev, "tree"))
        for name, a, b in rows:
            print("    %-40s %-16s %s" % (name, num(a), num(b)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
