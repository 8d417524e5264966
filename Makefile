# Convenience entry points; everything is plain dune underneath.

.PHONY: all check test lint analyze chaos chaos-soak chaos-rewind-soak bench bench-r4 bench-r5 bench-gate bench-json bench-scale perf perf-smoke perf-compare host-ratio same telemetry-report forensics-report clean

all: check

# Tier-1 gate: full build plus the default test suites. The runtest
# alias depends on @lint (see the root dune file), so this is build +
# tests + lint in one command.
check:
	dune build
	dune runtest

test: check

# Repo lint only: banned patterns in lib/ (Obj.magic, wall-clock time,
# raw simulated-memory access, .ml without .mli), allowlisted in
# ./lint.allow.
lint:
	dune build @lint

# Full analysis gate: repo lint, the policy verifier over every fleet
# shard, the dynamic race/atomicity scenario, and the race-analyzer test
# suite (`dune build @races`).
analyze:
	dune build @lint
	dune exec bin/sdrad_cli.exe -- analyze --aggregate
	dune exec bin/sdrad_cli.exe -- analyze --races
	dune build @races

# Long fault-injection / DoS suites across five fixed seeds, plus the
# incident-forensics smoke run (see forensics-report below).
chaos:
	dune build @chaos

# Incident forensics smoke: replay the injected-fault scenario and
# render one request's full causal chain — client send, retry attempts,
# domain switch, fault, rewind audit record with flight snapshot,
# journal-replay outcome — as text and JSON, plus the rollback report.
forensics-report:
	dune build @forensics-report

# Recovery-correctness soak across five fixed seeds: retrying clients
# with idempotency keys under mixed network faults, injected corruption
# and overload; fails if an acknowledged write is lost or a
# non-idempotent op is applied twice.
chaos-soak:
	dune build @chaos-soak

# Fault-during-rewind campaign across the same seeds: second faults
# injected between discard steps of multi-domain rewinds; fails if any
# partial rollback state is observable (leaked lock, half-discarded
# subtree, pending intent, missing or duplicate audit record).
chaos-rewind-soak:
	dune build @chaos-rewind-soak

bench:
	dune exec bench/main.exe -- quick

# Switch-cost anatomy (experiment E7): per-pair rows read from the
# monitor's switch.* spans over 512 warm enter/exit pairs, summing to the
# pair; fails if the PKRU-write share leaves the paper's 30-50% band.
telemetry-report:
	dune exec bench/main.exe -- e7

# End-to-end recovery benchmark: goodput and p99 latency with retrying
# clients under a ~1% fault rate; emits BENCH_r4.json and fails if any
# operation runs out of retries or faulted goodput drops below 0.6x.
bench-r4:
	dune exec bench/main.exe -- r4

# Cluster scaling benchmark: aggregate goodput and p99 vs shard count
# with an open-loop fleet of 10^4 clients behind the consistent-hash
# router; emits BENCH_r5.json and fails if 4-shard aggregate goodput is
# below 2.8x the 1-shard figure.
bench-r5:
	dune exec bench/main.exe -- r5

# Batched-gate switch benchmark: request-loop anatomy plain and inside
# a batched gate (PKRU cycles summed from switch.pkru_write spans), and
# the kvcache YCSB overhead with batched gates; emits BENCH_gate.json and
# fails if the batched PKRU share is not below the 30% floor or the gated
# run or load overhead is worse than plain sdrad's, measured in the same
# run.
bench-gate:
	dune exec bench/main.exe -- gate

# Regenerate the committed bench JSON (gate, r4, r5; ~7 s) and fail if
# any of it changed: a refactor that must keep every number the same is
# checked by this target passing.
bench-json:
	dune exec bench/main.exe -- gate
	dune exec bench/main.exe -- r4
	dune exec bench/main.exe -- r5
	git diff --exit-code BENCH_gate.json BENCH_r4.json BENCH_r5.json

# E1 and E6 at 10^6 records and 10^7 operations in a 2 GiB space
# (bench/scale.ml): baseline, TLSF and SDRaD with 1 and 4 workers; emits
# BENCH_scale.json (simulated numbers only), prints each run's host CPU
# time and fails if a request fails. Kept out of tier-1 and bench-json:
# it takes about 10 minutes and a run holds about 1.3 GiB of host memory.
bench-scale:
	dune exec bench/scale.exe

# The repo's benchmark (perfsuite/, declared in BENCHMARK.json): every
# workload on seed 1, untraced, one process each; the last output line
# is a JSON object with each workload's end-to-end metrics, among them
# host_alloc_words_per_op.
perf:
	python3 perfsuite/run.py --seed 1 --seconds 5 --trace 0

# Benchmark smoke test (~1 min): the layer map, output checks on every
# workload, and seed-42 determinism of every simulated metric.
perf-smoke:
	python3 perfsuite/smoke.py

# Interleaved benchmark pairs against another commit, e.g.
# `make perf-compare REV=HEAD~1 [PAIRS=10] [SEED=1] [WORKLOAD=kv-read]`:
# every workload (or only WORKLOAD) on seed SEED, alternating which side
# runs first. Prints each end-to-end metric's medians and quartiles,
# pair wins and a verdict, then every per-layer metric that differs by
# more than 1% in one traced run per side, and fails if a metric is
# worse than its BENCHMARK.json bound (see bench/perf_compare.py).
PAIRS ?= 10
SEED ?= 1
perf-compare:
	@test -n "$(REV)" || { echo "usage: make perf-compare REV=<commit> [PAIRS=10] [SEED=1] [WORKLOAD=<name>]"; exit 2; }
	python3 bench/perf_compare.py "$(REV)" --pairs $(PAIRS) --seed $(SEED) $(if $(WORKLOAD),--workload $(WORKLOAD))

# Host CPU of the SDRaD kvcache against baseline: 5 interleaved runs per
# variant of `sdrad_cli kvbench --records 1500 --ops 600000 --workers 4`,
# user+sys time from getrusage, medians and their SDRaD/baseline ratio
# (bench/host_ratio.py; host time is printed, never committed). With
# REV=<commit>, REV's tree is measured too, interleaved with this one.
host-ratio:
	python3 bench/host_ratio.py $(REV)

# The soaks, bench tables and perfsuite's simulated metrics against
# another commit, e.g. `make same REV=HEAD~1`: builds @chaos,
# @chaos-soak and @chaos-rewind-soak with --force in REV's tree (the
# perf-compare checkout) and here, runs each tree's bench/main.exe over
# every experiment but micro from a temporary directory (so no committed
# BENCH JSON is rewritten), then runs perfsuite once per tree, workload
# and seed (1 and 42) with --trace 1. It fails on the first line of
# output that differs, timing lines aside, and on any perfsuite metric
# that differs but the host ones (host_alloc_words_per_op, host_heap_mb,
# setup_s, telemetry.trace_alloc_overhead and the host timings). A
# refactor that must keep every simulated number passes it.
same:
	@test -n "$(REV)" || { echo "usage: make same REV=<commit>"; exit 2; }
	python3 bench/perf_compare.py "$(REV)" --same

clean:
	dune clean
