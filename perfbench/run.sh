#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache and binary) goes under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
