#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see bench/README.md). All build output —
# the Go build cache, temporary files and the go command's own config and
# telemetry counters included — stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o ../.bench_build/bench .)
exec .bench_build/bench "$@"
