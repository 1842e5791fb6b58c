#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
# Run from the repository root, e.g.:
#
#   bash pipebench/run.sh --workload capture --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's own config and temporary files and the
# benchmark's scratch space all stay under .bench_build in the repository
# root; nothing is downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/pipebench" && go build -o "$build/pipebench" .)
exec "$build/pipebench" "$@"
