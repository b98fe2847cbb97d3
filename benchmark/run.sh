#!/usr/bin/env bash
# The BENCHMARK.json command: build servedbench (this directory is its own
# Go module) inside the checkout, then hand it the driver's arguments. Run
# from the checkout root. servedbench builds cmd/hdld itself. Everything
# built, cached or written while running stays under .bench_build/ and
# benchmark/out/ of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/servedbench" .)
exec "$build/servedbench" -root "$root" "$@"
