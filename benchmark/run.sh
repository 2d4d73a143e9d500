#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# The Go build cache, work directory and toolchain config go there too, so
# nothing is written outside the checkout.
# Usage: bash benchmark/run.sh --workload serve --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lhws-benchmark" .)
exec "$build/lhws-benchmark" -out "$here/out" "$@"
