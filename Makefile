# Convenience entry points; everything is plain dune underneath.

.PHONY: all check test lint analyze chaos chaos-soak chaos-rewind-soak bench bench-r4 bench-r5 bench-gate telemetry-report forensics-report clean

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

# Switch-cost anatomy from span traces; fails if the PKRU-write share
# of an enter+exit pair leaves the paper's 30-50% band.
telemetry-report:
	dune exec bench/main.exe -- r2

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
# a batched gate, and the kvcache YCSB overhead with batched gates; emits
# BENCH_gate.json and fails if the batched PKRU share is not below the
# 30% floor or the overhead does not improve on -3.7%/-6.6% run/load.
bench-gate:
	dune exec bench/main.exe -- gate

clean:
	dune clean
