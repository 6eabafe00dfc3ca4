#!/bin/sh
# Entry point named by BENCHMARK.json: build the harness from source into
# .bench_build/ (Go caches included, so nothing is written outside the
# checkout), then replace this shell with it. Run from the repository root.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# No VCS stamping: a checkout whose .git the build user does not own would
# fail the build; the harness asks git itself and goes without when it cannot.
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/corgipile-benchmark" .)
exec "$build/corgipile-benchmark" -out "$root/benchmark/out" -tmp "$build/tmp" "$@"
