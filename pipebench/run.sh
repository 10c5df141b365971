#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash pipebench/run.sh --workload rush-1c --seed 1 --seconds 12 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/
# in the repository root. The build needs the repository's Go module
# next to this directory; without it the script fails before running.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOENV=off

(cd "$bench_dir" && go build -o "$out/pipebench" .)
cd "$root"
exec "$out/pipebench" "$@"
