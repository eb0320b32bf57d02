#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, span files and stored sim metrics all live
# under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$root/.bench_build"
go -C "$root/perfbench" build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
