#!/usr/bin/env bash
# Builds perfbench from source and runs it from the root of a flexftl
# checkout:
#
#   bash perfbench/run.sh --workload ntrx-gc --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BASE.json NEW.json
#
# The binary, the Go build cache and Go's temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout; result files
# go to .bench_build/results.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
