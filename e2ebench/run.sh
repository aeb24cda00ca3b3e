#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, e.g.
#
#   bash e2ebench/run.sh --workload syn_cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build cache,
# the binary, temporary WAL/journal directories and span dumps) stays under
# .bench_build/ in the working directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/e2ebench" -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
