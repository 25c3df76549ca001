#!/bin/sh
# check.sh — the repository's tier-1 gate plus the style/determinism
# lints and the race-mode concurrency checks. `make check` runs this
# (after `make lint`, whose steps the first three lines mirror so that
# running check.sh directly enforces the same bar).
set -eux

# Style/determinism gate: gofmt-clean tree, vet-clean, and zero simlint
# findings (internal/analysis; DESIGN.md §5 — five local checkers plus
# the whole-program snapshot-drift, fault-site-registry, lane-safety,
# and hotpath-alloc invariants).
test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/simlint

# Findings-cache gate: cold-populate a fresh cache, warm-replay it,
# assert identical findings and a >=3x warm speedup (DESIGN.md §5.5).
sh scripts/lint_cache_smoke.sh

go build ./...
go test ./...

# Race-mode pass over the full tree (cmd/ and examples/ included, not
# just internal/): the sweep executor, the engines' shared memo caches,
# the simserve worker pool, and now the parsim device-stepper lanes are
# the intended concurrency; racing everything guards against new
# goroutines sneaking in past the stray-goroutine checker's allowlist.
# The deterministic-output tests (TestParallelOutputByteIdentical,
# TestIntraByteIdentity, TestRepeatedRunByteIdentical) run under race
# here too.
go test -race ./...

# Conservative-parallel determinism smoke: table4 and a multi-device
# chrome trace must be byte-identical between -intra 1 and -intra 4
# (GOMAXPROCS pinned so stepper lanes are real on single-core CI).
sh scripts/intra_smoke.sh

# Checkpoint determinism smoke: the same experiment with and without
# -checkpoints must print byte-identical output (forked runs restore
# engine snapshots; any snapshot/replay drift shows up as a byte diff).
# Its final case re-runs with -checkpoints -intra 2, proving snapshots
# compose with parallel intra-run mode.
sh scripts/ckpt_smoke.sh

# End-to-end serving smoke: simd on an ephemeral port, a cheap job
# submitted twice, byte-identical cache hit on the resubmit (verified
# against /metrics), graceful SIGTERM drain and portfile removal.
sh scripts/serve_smoke.sh

# Crash-safety smoke: simd with -state-dir answers a job, dies by
# SIGKILL, restarts on the same state directory, and must serve the
# same spec byte-identically from its recovered journal without
# re-running the engine. The daemon runs with -intra 2, so recovery is
# exercised with device stepper lanes live.
sh scripts/crash_smoke.sh

# Cluster smoke: three simd shards behind simrouter over real sockets.
# A routed sweep must be byte-identical to a single-node simd, a second
# pass sent as two concurrent batches must be all cache hits (no new
# cache misses, per the shards' counters), a shard killed with SIGKILL
# mid-batch must not lose the batch (hedged failover, zero
# determinism-probe mismatches, mark-down by health probes), and
# restarting the shard must re-admit it.
sh scripts/cluster_smoke.sh

# Wall-time regression gating is deliberately NOT part of this tier-1
# gate: wall clocks are machine- and load-dependent, so the benchmark
# baseline comparison is opt-in via `make bench-gate` (per-table
# tolerance against the committed BENCH_pr10.json; see
# scripts/bench_gate.sh).
