#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: `sh benchmark/run.sh --workload narrow-mix`.
# Everything the build and the run write (binary, Go build cache, temporary
# data directories) stays under .bench_build in that checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
(cd "$(dirname "$0")" && go build -o "$out/whatif-bench" .)
exec "$out/whatif-bench" "$@"
