#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash _perfbench/run.sh --workload nexdsim --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build outputs and the Go build cache go
# to .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C _perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
