#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (Go build cache, temp files, the binary)
# stays in .bench_build at the repository root; see bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C bench build -o "$build/ensembleio-bench" .
exec "$build/ensembleio-bench" "$@"
